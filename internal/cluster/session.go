package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"

	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// RoutedSession is the cluster-wide analogue of ingest.Session: the
// same operation surface, with every operation routed across the ring.
// Like its single-node counterpart it runs one operation at a time;
// open several for parallel streams (they share the cluster's pools).
type RoutedSession struct {
	c    *Cluster
	feed ingest.Feeder // cuts Backup's streams, as a router session's does
}

// NewSession returns a session facade over the cluster.
func (c *Cluster) NewSession() *RoutedSession { return &RoutedSession{c: c} }

// Backup chunks r with the cluster's engine and backs it up under
// name, fanning each chunk to its ring owner. The returned stats
// aggregate the per-node sub-streams.
func (rs *RoutedSession) Backup(name string, r io.Reader) (*ingest.StreamStats, error) {
	st, err := rs.c.NewStream(name, obs.SpanContext{})
	if err != nil {
		return nil, err
	}
	if _, err := rs.feed.Feed(st, rs.c.eng, r); err != nil {
		st.Abort()
		return nil, err
	}
	return st.Commit()
}

// BackupBytes is Backup over an in-memory image.
func (rs *RoutedSession) BackupBytes(name string, data []byte) (*ingest.StreamStats, error) {
	return rs.Backup(name, bytes.NewReader(data))
}

// Restore streams a backed-up name into w. An unknown name (no
// manifest on its home node) is a *ingest.NotFoundError.
func (rs *RoutedSession) Restore(name string, w io.Writer) (int64, error) {
	var total int64
	err := rs.c.restore(name, func(chunk []byte) error {
		n, err := w.Write(chunk)
		total += int64(n)
		return err
	}, obs.SpanContext{})
	return total, err
}

// RestoreBytes is Restore into memory.
func (rs *RoutedSession) RestoreBytes(name string) ([]byte, error) {
	var out bytes.Buffer
	if _, err := rs.Restore(name, &out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Verify restores name and checks it against original byte-for-byte.
func (rs *RoutedSession) Verify(name string, original []byte) error {
	got, err := rs.RestoreBytes(name)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, original) {
		return errors.New("cluster: restored stream differs from original")
	}
	return nil
}

// Delete expires name everywhere: every node's sub-stream and the home
// node's manifest. The aggregated stats cover the client's stream
// alone (the manifest's own bookkeeping chunks are excluded), matching
// what a single node would have reported.
func (rs *RoutedSession) Delete(name string) (*shardstore.DeleteStats, error) {
	ds, err := rs.c.delete(name, obs.SpanContext{})
	if err != nil {
		return nil, err
	}
	return &ds, nil
}

// restore re-interleaves the per-node sub-streams in manifest order,
// handing emit one verified chunk at a time.
func (c *Cluster) restore(name string, emit func(chunk []byte) error, parent obs.SpanContext) error {
	if reservedName(name) {
		return ErrReservedName
	}
	sp := c.span("route_restore", parent, obs.Str("recipe", name))
	defer sp.End()

	home := c.ring.OwnerName(name)
	hsess, err := c.lease(home)
	if err != nil {
		return err
	}
	mdata, err := hsess.RestoreBytes(ManifestName(name))
	if err != nil {
		if errors.Is(err, ingest.ErrNotFound) {
			// No manifest means no stream: the not-found restore left
			// the home session on a clean boundary.
			c.pools[home].Put(hsess)
			return &ingest.NotFoundError{Op: "restore", Name: name}
		}
		c.pools[home].Discard(hsess)
		return &NodeError{Node: c.ring.Node(home).ID, Op: "restore", Err: err}
	}
	c.met.nodeTraffic(home, 0, int64(len(mdata)))
	c.pools[home].Put(hsess)
	hashes, err := decodeManifest(mdata)
	if err != nil {
		return err
	}
	sp.Set(obs.Int("chunks", int64(len(hashes))))

	// One restore stream per owner node, merged chunk by chunk in
	// manifest order; every chunk is verified against its fingerprint,
	// so a node serving wrong bytes (or drifting off chunk-per-frame
	// alignment) fails loudly instead of corrupting the stream.
	type nodeRestore struct {
		idx  int
		sess *ingest.Session
		rs   *ingest.RestoreStream
	}
	streams := make(map[int]*nodeRestore)
	discardAll := func() {
		for _, nr := range streams {
			c.pools[nr.idx].Discard(nr.sess)
		}
	}
	var total int64
	for i, h := range hashes {
		o := c.ring.Owner(h)
		nr := streams[o]
		if nr == nil {
			sess, err := c.lease(o)
			if err != nil {
				discardAll()
				return err
			}
			rstream, err := sess.OpenRestore(name)
			if err != nil {
				c.pools[o].Discard(sess)
				discardAll()
				return &NodeError{Node: c.ring.Node(o).ID, Op: "restore", Err: err}
			}
			nr = &nodeRestore{idx: o, sess: sess, rs: rstream}
			streams[o] = nr
		}
		data, err := nr.rs.NextChunk()
		if err != nil {
			discardAll()
			if err == io.EOF {
				err = errors.New("sub-stream ended before the manifest did")
			}
			// Deliberately flattened: a node missing its sub-stream is
			// cluster damage, not a not-found the caller should trust.
			return &NodeError{Node: c.ring.Node(o).ID, Op: "restore",
				Err: fmt.Errorf("chunk %d of %q: %v", i, name, err)} //lint:allow errhygiene flattening is the contract here: cluster damage must not surface as a trusted NotFoundError
		}
		if dedup.Sum(data) != h {
			discardAll()
			return &ChunkMismatchError{Name: name, Node: c.ring.Node(o).ID, Index: i}
		}
		c.met.nodeTraffic(o, 0, int64(len(data)))
		total += int64(len(data))
		if err := emit(data); err != nil {
			discardAll()
			return err
		}
	}
	// Every sub-stream must end exactly where the manifest does.
	for _, nr := range streams {
		if _, err := nr.rs.NextChunk(); err != io.EOF {
			discardAll()
			if err == nil {
				err = errors.New("sub-stream has chunks beyond the manifest")
			}
			return &NodeError{Node: c.ring.Node(nr.idx).ID, Op: "restore", Err: err}
		}
		c.pools[nr.idx].Put(nr.sess)
	}
	c.met.stream("restore")
	sp.Set(obs.Int("bytes", total))
	return nil
}

// delete fans the deletion out to every node concurrently — a node
// without a sub-stream answers not-found, which is benign — and
// removes the manifest from the home node. The stream "exists" (no
// top-level not-found) if any node had a sub-stream or the manifest
// was present.
func (c *Cluster) delete(name string, parent obs.SpanContext) (shardstore.DeleteStats, error) {
	if reservedName(name) {
		return shardstore.DeleteStats{}, ErrReservedName
	}
	sp := c.span("route_delete", parent, obs.Str("recipe", name))
	defer sp.End()

	home := c.ring.OwnerName(name)
	var (
		mu       sync.Mutex
		agg      shardstore.DeleteStats
		found    bool
		firstErr error
	)
	report := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for i := range c.pools {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds := sp.Child("node_delete", obs.Str("node", c.ring.Node(i).ID))
			defer ds.End()
			sess, err := c.lease(i)
			if err != nil {
				report(err)
				return
			}
			st, err := sess.Delete(name)
			if err != nil && !errors.Is(err, ingest.ErrNotFound) {
				c.pools[i].Discard(sess)
				report(&NodeError{Node: c.ring.Node(i).ID, Op: "delete", Err: err})
				return
			}
			manifestFound := false
			if i == home {
				// The manifest goes last, so a crash mid-delete leaves
				// a stream that still fully restores. Its bookkeeping
				// chunks are real freed bytes but not part of the
				// client's stream, so they stay out of the aggregate.
				if _, merr := sess.Delete(ManifestName(name)); merr == nil {
					manifestFound = true
				} else if !errors.Is(merr, ingest.ErrNotFound) {
					c.pools[i].Discard(sess)
					report(&NodeError{Node: c.ring.Node(i).ID, Op: "delete", Err: merr})
					return
				}
			}
			c.pools[i].Put(sess)
			mu.Lock()
			if err == nil {
				found = true
				agg.ChunksReleased += st.ChunksReleased
				agg.ChunksFreed += st.ChunksFreed
				agg.BytesFreed += st.BytesFreed
			}
			if manifestFound {
				found = true
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return shardstore.DeleteStats{}, firstErr
	}
	if !found {
		return shardstore.DeleteStats{}, &ingest.NotFoundError{Op: "delete", Name: name}
	}
	c.met.stream("delete")
	sp.Set(obs.Int("chunks_released", agg.ChunksReleased),
		obs.Int("chunks_freed", agg.ChunksFreed),
		obs.Int("bytes_freed", agg.BytesFreed))
	return agg, nil
}
