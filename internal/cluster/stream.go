package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/obs"
)

// streamNode is one node's share of an in-flight routed stream.
type streamNode struct {
	idx    int
	sess   *ingest.Session
	opened bool // BeginDedup sent

	// stats is the node's commit reply.
	stats *ingest.StreamStats
	// err is the node's first failure; it takes no round afterwards.
	// During a fan-out only the goroutine running the node's share sets
	// it, and the stream's goroutine reads it once that one is waited out.
	err error
}

func (n *streamNode) fail(err error) {
	if n.err == nil {
		n.err = err
	}
}

// Stream is one in-flight routed backup: chunks split by ring
// ownership into per-node v3 dedup sub-streams, all under the client's
// stream name, plus the manifest committed on the stream's home node
// at the end. It is the cluster's ingest.Stream: the router's front end
// drives it exactly as it would drive a single store's. Not safe for
// concurrent use — one goroutine drives a stream (the internal per-node
// fan-out is the concurrency).
//
// Every round goes through one fan-out (fanOut): the batch splits by
// owner, and each owner's share runs concurrently on its own sub-stream,
// so a round lasts as long as its slowest owner's share, not the sum of
// the shares. Two ways to feed a stream
// share it and the commit machinery:
//
//   - Add, for callers holding chunk bodies (RoutedSession.Backup, the
//     router's raw-protocol clients): each owner runs a round with the
//     bodies in hand — its fingerprints, then the bodies it lacks —
//     before Add returns. The chunking pipeline in front cuts and hashes
//     the next batch meanwhile.
//   - RoundHas/RoundBody, for the router's dedup-protocol clients,
//     where each round's bodies only arrive after the merged missing
//     set goes back to the client: the owners answer their fingerprints,
//     the per-node answers merge into client batch indices, and the
//     client's bodies are then forwarded one by one.
type Stream struct {
	c    *Cluster
	name string
	sp   *obs.Span
	op   string // "backup" (Add) or "backup_dedup" (RoundHas)

	nodes  []*streamNode
	hashes []dedup.Hash // full stream order: the manifest

	// bodyOwners routes the bodies owed after a RoundHas answer, in
	// client batch-index order.
	bodyOwners []*streamNode

	ended bool
}

// NewStream opens a routed backup stream under name. parent, when
// valid, remote-parents the stream's span (a router passes the trace
// context from the client's BeginDedup).
func (c *Cluster) NewStream(name string, parent obs.SpanContext) (*Stream, error) {
	if reservedName(name) {
		return nil, ErrReservedName
	}
	st := &Stream{
		c:    c,
		name: name,
		sp:   c.span("route_backup", parent, obs.Str("recipe", name)),
		op:   "backup",
	}
	for i := 0; i < c.ring.Len(); i++ {
		st.nodes = append(st.nodes, &streamNode{idx: i})
	}
	return st, nil
}

// nodeErr wraps a node-level failure with its identity.
func (st *Stream) nodeErr(n *streamNode, err error) *NodeError {
	return &NodeError{Node: st.c.ring.Node(n.idx).ID, Op: st.op, Err: err}
}

// ensureOpen leases the node's session and opens the sub-stream.
func (st *Stream) ensureOpen(n *streamNode) error {
	if n.opened {
		return nil
	}
	sess, err := st.c.lease(n.idx)
	if err != nil {
		n.fail(err)
		return err
	}
	if err := sess.BeginDedup(st.name, st.sp.Context()); err != nil {
		st.c.pools[n.idx].Discard(sess)
		ne := st.nodeErr(n, err)
		n.fail(ne)
		return ne
	}
	n.sess = sess
	n.opened = true
	return nil
}

// share is one owner's part of a batch: its fingerprints and bodies, the
// batch index of each, and the owner's answer to the round.
type share struct {
	n       *streamNode
	idx     []int
	hs      []dedup.Hash
	bodies  [][]byte
	missing []int // indices into hs the owner lacked
}

// fanOut is the stream's one round across the ring: hs (and bodies, when
// given) split by owner, every owner's sub-stream opens on first use, and
// round runs on every owner's share concurrently, on the owner's session,
// timed into cluster_node_round_seconds; it returns the indices into the
// share's hs the owner lacked. fanOut returns the shares in batch order
// of first appearance and, when an owner failed, its *NodeError; a node
// that failed in an earlier round takes no part.
func (st *Stream) fanOut(hs []dedup.Hash, bodies [][]byte,
	round func(s *ingest.Session, hs []dedup.Hash, bodies [][]byte) ([]int, error)) ([]*share, error) {
	byNode := make([]*share, len(st.nodes))
	var shares []*share
	for i, h := range hs {
		o := st.c.ring.Owner(h)
		sh := byNode[o]
		if sh == nil {
			sh = &share{n: st.nodes[o]}
			byNode[o] = sh
			shares = append(shares, sh)
		}
		sh.idx = append(sh.idx, i)
		sh.hs = append(sh.hs, h)
		if bodies != nil {
			sh.bodies = append(sh.bodies, bodies[i])
		}
	}
	var wg sync.WaitGroup
	for _, sh := range shares {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := sh.n
			if n.err != nil || st.ensureOpen(n) != nil {
				return
			}
			t0 := time.Now()
			missing, err := round(n.sess, sh.hs, sh.bodies)
			st.c.met.round(n.idx, time.Since(t0))
			if err != nil {
				n.fail(st.nodeErr(n, err))
				return
			}
			sh.missing = missing
			tx := int64(len(sh.hs) * len(dedup.Hash{}))
			if sh.bodies != nil {
				for _, i := range missing {
					tx += int64(len(sh.bodies[i]))
				}
			}
			st.c.met.nodeTraffic(n.idx, tx, 0)
		}()
	}
	wg.Wait()
	for _, sh := range shares {
		if sh.n.err != nil {
			return nil, sh.n.err
		}
	}
	return shares, nil
}

// Add routes the next chunks of the stream, bodies[i] hashing to hs[i]:
// every owner of the batch runs a round with the bodies in hand on its
// share (Session.DedupRound), concurrently. The bodies are only valid for
// the call, and they are written into each owner session's buffer and
// flushed before Add returns, so nothing is copied. A non-nil error is
// the first failed owner's *NodeError — the caller should stop feeding
// and Abort (Commit would surface the same error). While a RoundHas
// answer still owes bodies, Add is refused and sends nothing.
func (st *Stream) Add(hs []dedup.Hash, bodies [][]byte) error {
	if len(st.bodyOwners) != 0 {
		return fmt.Errorf("cluster: batch added with %d bodies still owed", len(st.bodyOwners))
	}
	st.hashes = append(st.hashes, hs...)
	_, err := st.fanOut(hs, bodies, (*ingest.Session).DedupRound)
	return err
}

// hasBatch is a round without bodies: the owner answers its fingerprints.
func hasBatch(s *ingest.Session, hs []dedup.Hash, _ [][]byte) ([]int, error) {
	return s.HasBatch(hs)
}

// RoundHas runs one client fingerprint round: the owners answer their
// shares of the batch concurrently, and the merged result is the
// ascending client batch indices the cluster is missing. The caller owes
// exactly one RoundBody per returned index, in order, before the next
// RoundHas, Add or Commit. A stream already fed by Add is refused, so the
// op a stream reports under cannot change once it has chunks.
func (st *Stream) RoundHas(hs []dedup.Hash) ([]int, error) {
	if st.op == "backup" && len(st.hashes) != 0 {
		return nil, errors.New("cluster: fingerprint round on a stream fed by Add")
	}
	if len(st.bodyOwners) != 0 {
		return nil, fmt.Errorf("cluster: new round with %d bodies still owed", len(st.bodyOwners))
	}
	st.op = "backup_dedup"
	st.hashes = append(st.hashes, hs...)
	shares, err := st.fanOut(hs, nil, hasBatch)
	if err != nil {
		return nil, err
	}
	var missing []int
	for _, sh := range shares {
		for _, mi := range sh.missing {
			missing = append(missing, sh.idx[mi])
		}
	}
	sort.Ints(missing)
	// Ascending client order filtered per node preserves each node's
	// own missing order, so forwarding bodies in this order satisfies
	// every owner.
	for _, ci := range missing {
		st.bodyOwners = append(st.bodyOwners, st.nodes[st.c.ring.Owner(hs[ci])])
	}
	return missing, nil
}

// RoundBody forwards the next owed body to its owner. The frame is
// queued unflushed — the owner's next round or commit flushes it, and
// the node does not answer bodies, so nothing stalls.
func (st *Stream) RoundBody(body []byte) error {
	if len(st.bodyOwners) == 0 {
		return errors.New("cluster: body arrived with none owed")
	}
	n := st.bodyOwners[0]
	st.bodyOwners = st.bodyOwners[1:]
	if n.err != nil {
		return n.err
	}
	if err := n.sess.WriteBody(body); err != nil {
		ne := st.nodeErr(n, err)
		n.fail(ne)
		return ne
	}
	st.c.met.nodeTraffic(n.idx, int64(len(body)), 0)
	return nil
}

// Abort abandons the stream: every leased node session is discarded,
// which the nodes observe as a dropped sub-stream and answer by
// releasing the references the stream pinned. Idempotent; safe after a
// failed Commit.
func (st *Stream) Abort() {
	for _, n := range st.nodes {
		if n.sess != nil {
			st.c.pools[n.idx].Discard(n.sess)
			n.sess = nil
		}
	}
	if !st.ended {
		st.ended = true
		st.sp.Set(obs.Str("outcome", "aborted"))
		st.sp.End()
	}
}

// Commit finishes the stream: every opened node commits its sub-stream
// (concurrently), stale sub-streams from a previous backup under the same
// name are cleared off the other nodes, and the manifest is committed on
// the home node last. The returned
// stats aggregate the nodes' — Bytes/Chunks/DupChunks are exact sums;
// Store sums the per-node store totals into a cluster-wide view.
//
// Failure semantics: any node failure before the commit point aborts
// everything (nodes release their pins). A failure *during* the commit
// fan-out best-effort deletes the sub-streams that did commit, so a
// half-committed stream does not pin chunks forever; without its
// manifest it was never restorable anyway.
func (st *Stream) Commit() (*ingest.StreamStats, error) {
	if len(st.bodyOwners) != 0 {
		err := fmt.Errorf("cluster: commit with %d bodies still owed", len(st.bodyOwners))
		st.Abort()
		return nil, err
	}
	for _, n := range st.nodes {
		if n.err != nil {
			st.Abort()
			return nil, n.err
		}
	}

	// Commit every opened sub-stream concurrently: on fsync-bound
	// nodes the commit barriers overlap instead of queueing.
	var wg sync.WaitGroup
	for _, n := range st.nodes {
		if !n.opened {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := st.sp.Child("node_commit", obs.Str("node", st.c.ring.Node(n.idx).ID))
			stats, err := n.sess.CommitDedup()
			cs.End()
			if err != nil {
				n.fail(st.nodeErr(n, err))
				return
			}
			n.stats = stats
		}()
	}
	wg.Wait()
	for _, n := range st.nodes {
		if n.err != nil {
			st.undoCommitted()
			st.Abort()
			return nil, n.err
		}
	}

	// A re-backup under an existing name may leave a node that owned
	// chunks last time with none this time: its stale sub-stream would
	// pin the old chunks until the next Delete. Clear them now. A
	// failure here is a bounded leak (Delete sweeps every node), not a
	// failed backup — the client's stream is fully committed.
	for _, n := range st.nodes {
		if n.opened {
			continue
		}
		sess, err := st.c.lease(n.idx)
		if err != nil {
			st.logStale(n, err)
			continue
		}
		if _, err := sess.Delete(st.name); err != nil && !errors.Is(err, ingest.ErrNotFound) {
			st.c.pools[n.idx].Discard(sess)
			st.logStale(n, err)
			continue
		}
		st.c.pools[n.idx].Put(sess)
	}

	// The manifest commits last: a stream exists for restore exactly
	// when its manifest does, so a crash anywhere above leaves only
	// node-local garbage (cleared by Delete), never a stream that
	// restores wrong.
	home := st.c.ring.OwnerName(st.name)
	hn := st.nodes[home]
	hsess := hn.sess
	if hsess == nil {
		var err error
		if hsess, err = st.c.lease(home); err != nil {
			st.undoCommitted()
			st.Abort()
			return nil, err
		}
		hn.sess = hsess // Abort/teardown now owns it
	}
	mdata := encodeManifest(st.hashes)
	ms := st.sp.Child("manifest", obs.Int("chunks", int64(len(st.hashes))))
	_, err := hsess.Backup(ManifestName(st.name), bytes.NewReader(mdata))
	ms.End()
	if err != nil {
		st.undoCommitted()
		st.Abort()
		return nil, &NodeError{Node: st.c.ring.Node(home).ID, Op: "manifest", Err: err}
	}
	st.c.met.nodeTraffic(home, int64(len(mdata)), 0)

	// Healthy end: every leased session is on a clean boundary.
	for _, n := range st.nodes {
		if n.sess != nil {
			st.c.pools[n.idx].Put(n.sess)
			n.sess = nil
		}
	}

	agg := &ingest.StreamStats{}
	for _, n := range st.nodes {
		if n.stats == nil {
			continue
		}
		agg.Bytes += n.stats.Bytes
		agg.Chunks += n.stats.Chunks
		agg.DupChunks += n.stats.DupChunks
		agg.UniqueBytes += n.stats.UniqueBytes
		agg.Wire.WireBytes += n.stats.Wire.WireBytes
		agg.Wire.ChunksSent += n.stats.Wire.ChunksSent
		agg.Wire.ChunksSkipped += n.stats.Wire.ChunksSkipped
		agg.Store.LogicalBytes += n.stats.Store.LogicalBytes
		agg.Store.StoredBytes += n.stats.Store.StoredBytes
		agg.Store.Chunks += n.stats.Store.Chunks
		agg.Store.UniqueChunks += n.stats.Store.UniqueChunks
		agg.Store.IndexHits += n.stats.Store.IndexHits
	}
	agg.Wire.LogicalBytes = agg.Bytes
	st.c.met.committed(agg.Bytes)
	st.c.met.stream(st.op)
	st.ended = true
	st.sp.Set(obs.Int("bytes", agg.Bytes), obs.Int("chunks", agg.Chunks),
		obs.Int("wire_bytes", agg.Wire.WireBytes))
	st.sp.End()
	return agg, nil
}

// undoCommitted best-effort deletes sub-streams whose node commit
// succeeded while a sibling's failed, so the half-stream's pins do not
// outlive the failed backup.
func (st *Stream) undoCommitted() {
	for _, n := range st.nodes {
		if n.stats == nil || n.sess == nil {
			continue
		}
		_, _ = n.sess.Delete(st.name)
	}
}

func (st *Stream) logStale(n *streamNode, err error) {
	if st.c.log != nil {
		st.c.log.Warn("stale sub-stream cleanup failed (will be swept by delete)",
			"recipe", st.name, "node", st.c.ring.Node(n.idx).ID, "err", err)
	}
}
