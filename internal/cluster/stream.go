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

// Per-node round batching on the locally chunked path, matching the
// single-node client's bounds: a round goes out once a node has this
// many fingerprints or this many held body bytes.
const (
	routeBatchChunks = 256
	routeBatchBytes  = 4 << 20
	// routeQueueDepth is the per-node backlog of dispatched rounds. Depth
	// 1 stalls the producer whenever a single node is mid-commit, which
	// forfeits the whole point of the fan-out: on durability-bound nodes
	// the WAL fsyncs only overlap if every node's queue stays stocked.
	// A few rounds of headroom (bounded by routeBatchBytes each) keep all
	// nodes busy while chunking continues.
	routeQueueDepth = 4
)

// nodeRound is one dispatched fingerprint round for a node worker.
type nodeRound struct {
	hs     []dedup.Hash
	bodies [][]byte
}

// streamNode is one node's share of an in-flight routed stream.
type streamNode struct {
	idx    int
	sess   *ingest.Session
	opened bool // BeginDedup sent

	// Locally chunked path: the pending batch and the worker feeding
	// rounds to the node concurrently with chunking (and with the
	// other nodes' rounds).
	hs     []dedup.Hash
	bodies [][]byte
	held   int64
	ch     chan nodeRound
	done   chan struct{}

	// stats is the node's commit reply.
	stats *ingest.StreamStats

	mu  sync.Mutex
	err error // first failure; the node drains afterwards
}

func (n *streamNode) fail(err error) {
	n.mu.Lock()
	if n.err == nil {
		n.err = err
	}
	n.mu.Unlock()
}

func (n *streamNode) failed() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
}

// Stream is one in-flight routed backup: chunks split by ring
// ownership into per-node v3 dedup sub-streams, all under the client's
// stream name, plus the manifest committed on the stream's home node
// at the end. It is the cluster's ingest.Stream: the router's front end
// drives it exactly as it would drive a single store's. Not safe for
// concurrent use — one goroutine drives a stream (the internal per-node
// fan-out is the concurrency).
//
// Two mutually exclusive feeding modes share the commit machinery:
//
//   - Add, for callers holding chunk bodies (RoutedSession.Backup, the
//     router's raw-protocol clients): rounds are batched per node and
//     shipped by per-node workers, so a slow node overlaps with
//     chunking and with its siblings.
//   - RoundHas/RoundBody, for the router's dedup-protocol clients,
//     where each round's bodies only arrive after the merged missing
//     set goes back to the client: fingerprints fan out to the owners
//     concurrently, the per-node answers merge into client batch
//     indices, and the client's bodies are then forwarded one by one.
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

// worker ships one node's rounds. After a failure it keeps draining
// the channel (dropping rounds) so the producer never blocks.
func (st *Stream) worker(n *streamNode) {
	defer close(n.done)
	for r := range n.ch {
		if n.failed() != nil {
			continue
		}
		if st.ensureOpen(n) != nil {
			continue
		}
		t0 := time.Now()
		missing, err := n.sess.DedupRound(r.hs, r.bodies)
		st.c.met.round(n.idx, time.Since(t0))
		if err != nil {
			n.fail(st.nodeErr(n, err))
			continue
		}
		tx := int64(len(r.hs) * len(dedup.Hash{}))
		for _, i := range missing {
			tx += int64(len(r.bodies[i]))
		}
		st.c.met.nodeTraffic(n.idx, tx, 0)
	}
}

// Add routes the next chunks of the stream, bodies[i] hashing to hs[i].
// The bodies are only valid for the call and the per-node workers ship
// them after it, so the batch is copied — once, into one allocation the
// nodes' rounds share. A non-nil error means some node already failed —
// the caller should stop feeding and Abort (Commit would surface the
// same error).
func (st *Stream) Add(hs []dedup.Hash, bodies [][]byte) error {
	var size int
	for _, body := range bodies {
		size += len(body)
	}
	kept := make([]byte, 0, size)
	st.hashes = append(st.hashes, hs...)
	for i, h := range hs {
		at := len(kept)
		kept = append(kept, bodies[i]...)
		n := st.nodes[st.c.ring.Owner(h)]
		n.hs = append(n.hs, h)
		n.bodies = append(n.bodies, kept[at:len(kept):len(kept)])
		n.held += int64(len(bodies[i]))
		if len(n.hs) >= routeBatchChunks || n.held >= routeBatchBytes {
			if err := st.flushNode(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushNode hands the node's pending batch to its worker, starting the
// worker on first use. Returns the node's failure, if any, so the
// producer can stop early.
func (st *Stream) flushNode(n *streamNode) error {
	if len(n.hs) == 0 {
		return n.failed()
	}
	if n.ch == nil {
		n.ch = make(chan nodeRound, routeQueueDepth)
		n.done = make(chan struct{})
		go st.worker(n)
	}
	n.ch <- nodeRound{hs: n.hs, bodies: n.bodies}
	n.hs, n.bodies, n.held = nil, nil, 0
	return n.failed()
}

// RoundHas runs one client fingerprint round: the batch splits by
// ownership, the owners answer concurrently, and the merged result is
// the ascending client batch indices the cluster is missing. The
// caller owes exactly one RoundBody per returned index, in order,
// before the next RoundHas or Commit.
func (st *Stream) RoundHas(hs []dedup.Hash) ([]int, error) {
	if st.op == "backup" && len(st.hashes) > 0 {
		return nil, errors.New("cluster: RoundHas on a stream already fed with Add")
	}
	st.op = "backup_dedup"
	if len(st.bodyOwners) != 0 {
		return nil, fmt.Errorf("cluster: new round with %d bodies still owed", len(st.bodyOwners))
	}
	subIdx := make([][]int, len(st.nodes))
	subHs := make([][]dedup.Hash, len(st.nodes))
	var involved []*streamNode
	for i, h := range hs {
		o := st.c.ring.Owner(h)
		if subHs[o] == nil {
			involved = append(involved, st.nodes[o])
		}
		subHs[o] = append(subHs[o], h)
		subIdx[o] = append(subIdx[o], i)
	}
	st.hashes = append(st.hashes, hs...)
	missingByNode := make([][]int, len(st.nodes))
	var wg sync.WaitGroup
	for _, n := range involved {
		wg.Add(1)
		go func(n *streamNode) {
			defer wg.Done()
			if st.ensureOpen(n) != nil {
				return
			}
			t0 := time.Now()
			miss, err := n.sess.HasBatch(subHs[n.idx])
			st.c.met.round(n.idx, time.Since(t0))
			st.c.met.nodeTraffic(n.idx, int64(len(subHs[n.idx])*len(dedup.Hash{})), 0)
			if err != nil {
				n.fail(st.nodeErr(n, err))
				return
			}
			missingByNode[n.idx] = miss
		}(n)
	}
	wg.Wait()
	for _, n := range involved {
		if err := n.failed(); err != nil {
			return nil, err
		}
	}
	var missing []int
	for _, n := range involved {
		for _, mi := range missingByNode[n.idx] {
			missing = append(missing, subIdx[n.idx][mi])
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
	if err := n.failed(); err != nil {
		return err
	}
	if err := n.sess.WriteBody(body); err != nil {
		ne := st.nodeErr(n, err)
		n.fail(ne)
		return ne
	}
	st.c.met.nodeTraffic(n.idx, int64(len(body)), 0)
	return nil
}

// stopWorkers closes every worker channel and waits them out.
func (st *Stream) stopWorkers() {
	for _, n := range st.nodes {
		if n.ch != nil {
			close(n.ch)
			<-n.done
			n.ch = nil
		}
	}
}

// Abort abandons the stream: every leased node session is discarded,
// which the nodes observe as a dropped sub-stream and answer by
// releasing the references the stream pinned. Idempotent; safe after a
// failed Commit.
func (st *Stream) Abort() {
	st.stopWorkers()
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

// Commit finishes the stream: remaining rounds flush, every opened
// node commits its sub-stream (concurrently), stale sub-streams from a
// previous backup under the same name are cleared off the other nodes,
// and the manifest is committed on the home node last. The returned
// stats aggregate the nodes' — Bytes/Chunks/DupChunks are exact sums;
// Store sums the per-node store totals into a cluster-wide view.
//
// Failure semantics: any node failure before the commit point aborts
// everything (nodes release their pins). A failure *during* the commit
// fan-out best-effort deletes the sub-streams that did commit, so a
// half-committed stream does not pin chunks forever; without its
// manifest it was never restorable anyway.
func (st *Stream) Commit() (*ingest.StreamStats, error) {
	for _, n := range st.nodes {
		_ = st.flushNode(n) // node failures re-surface from the commit fan-out below
	}
	st.stopWorkers()
	if len(st.bodyOwners) != 0 {
		err := fmt.Errorf("cluster: commit with %d bodies still owed", len(st.bodyOwners))
		st.Abort()
		return nil, err
	}
	for _, n := range st.nodes {
		if err := n.failed(); err != nil {
			st.Abort()
			return nil, err
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
		go func(n *streamNode) {
			defer wg.Done()
			cs := st.sp.Child("node_commit", obs.Str("node", st.c.ring.Node(n.idx).ID))
			stats, err := n.sess.CommitDedup()
			cs.End()
			if err != nil {
				n.fail(st.nodeErr(n, err))
				return
			}
			n.stats = stats
		}(n)
	}
	wg.Wait()
	for _, n := range st.nodes {
		if err := n.failed(); err != nil {
			st.undoCommitted()
			st.Abort()
			return nil, err
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
