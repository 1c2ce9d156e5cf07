package cluster

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/workload"
)

func nodeConfig() ingest.Config {
	cfg := ingest.DefaultConfig()
	cfg.BatchSize = 32
	return cfg
}

// testCluster is N real shredderd nodes on loopback TCP.
type testCluster struct {
	topo Topology
	srvs []*ingest.Server
	lns  []net.Listener
}

func startNodes(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		srv, err := ingest.NewServer(nodeConfig())
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		tc.srvs = append(tc.srvs, srv)
		tc.lns = append(tc.lns, ln)
		tc.topo.Nodes = append(tc.topo.Nodes,
			Node{ID: fmt.Sprintf("n%d", i), Addr: ln.Addr().String()})
	}
	t.Cleanup(func() {
		for i := range tc.lns {
			tc.kill(i)
		}
	})
	return tc
}

// kill severs node i: stop accepting, then force-close every live
// session (grace 0), which triggers the server's abort path — applied
// refs of uncommitted streams are released before Shutdown returns the
// session goroutines. Idempotent.
func (tc *testCluster) kill(i int) {
	if tc.lns[i] != nil {
		tc.lns[i].Close()
		tc.lns[i] = nil
		tc.srvs[i].Shutdown(0)
	}
}

func newTestCluster(t *testing.T, tc *testCluster, spec chunk.Spec) *Cluster {
	t.Helper()
	c, err := New(Config{
		Topology: tc.topo,
		Spec:     spec,
		Dial:     ingest.DialOptions{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// chunksOf cuts data exactly as a session with spec would.
func chunksOf(t *testing.T, spec chunk.Spec, data []byte) (hs []dedup.Hash, bodies [][]byte) {
	t.Helper()
	eng, err := chunk.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	sink := eng.Stream(func(c chunk.Chunk, d []byte) error {
		hs = append(hs, dedup.Sum(d))
		bodies = append(bodies, append([]byte(nil), d...))
		return nil
	})
	if _, err := sink.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return hs, bodies
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterDifferentialThreeNodes is the core acceptance test: the
// same workload driven through a 3-node cluster and through one plain
// shredderd must agree on every observable — stream stats, restored
// bytes, per-chunk reference counts, and delete stats — and deleting
// everything must leave every node's store empty (manifests included).
func TestClusterDifferentialThreeNodes(t *testing.T) {
	spec := chunk.FastCDCSpec(8 << 10)
	im := workload.NewImage(41, 2<<20, 64<<10, 0.5)
	snap := im.Snapshot(42)

	// Ground truth: one ordinary node driven by the ordinary client.
	single, err := ingest.NewServer(nodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sln.Close()
	go single.Serve(sln)
	ssess, err := ingest.Dial(sln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ssess.Close()
	if _, err := ssess.NegotiateDedup(spec); err != nil {
		t.Fatal(err)
	}
	sMaster, err := ssess.BackupDedupBytes("master", im.Master)
	if err != nil {
		t.Fatal(err)
	}
	sSnap, err := ssess.BackupDedupBytes("snap", snap)
	if err != nil {
		t.Fatal(err)
	}

	// Same workload through the cluster.
	tc := startNodes(t, 3)
	c := newTestCluster(t, tc, spec)
	rs := c.NewSession()
	cMaster, err := rs.BackupBytes("master", im.Master)
	if err != nil {
		t.Fatal(err)
	}
	cSnap, err := rs.BackupBytes("snap", snap)
	if err != nil {
		t.Fatal(err)
	}

	diff := func(stream string, s, c *ingest.StreamStats) {
		if c.Bytes != s.Bytes || c.Chunks != s.Chunks ||
			c.DupChunks != s.DupChunks || c.UniqueBytes != s.UniqueBytes {
			t.Fatalf("%s stream stats diverge: single %+v cluster %+v", stream, s, c)
		}
		if c.Wire.ChunksSent != s.Wire.ChunksSent || c.Wire.ChunksSkipped != s.Wire.ChunksSkipped {
			t.Fatalf("%s wire stats diverge: single %+v cluster %+v", stream, s.Wire, c.Wire)
		}
	}
	diff("master", sMaster, cMaster)
	diff("snap", sSnap, cSnap)
	if sSnap.DupChunks == 0 {
		t.Fatal("snapshot shares nothing with master — dedup is not exercised")
	}

	// Byte-identical restores.
	for _, probe := range []struct {
		name string
		data []byte
	}{{"master", im.Master}, {"snap", snap}} {
		if err := rs.Verify(probe.name, probe.data); err != nil {
			t.Fatalf("cluster restore of %s: %v", probe.name, err)
		}
		if err := ssess.Verify(probe.name, probe.data); err != nil {
			t.Fatalf("single restore of %s: %v", probe.name, err)
		}
	}

	// Refcount identity: for every chunk, the single store's count must
	// equal the cluster-wide sum, and only the ring owner may hold it.
	masterHs, _ := chunksOf(t, spec, im.Master)
	snapHs, _ := chunksOf(t, spec, snap)
	all := make(map[dedup.Hash]bool)
	for _, h := range append(append([]dedup.Hash(nil), masterHs...), snapHs...) {
		all[h] = true
	}
	checkRefcounts := func() {
		t.Helper()
		for h := range all {
			want := single.Store().Refcount(h)
			owner := c.Ring().Owner(h)
			var sum int64
			for i, srv := range tc.srvs {
				rc := srv.Store().Refcount(h)
				sum += rc
				if i != owner && rc != 0 {
					t.Fatalf("chunk %x held by node %d, owner is %d", h[:8], i, owner)
				}
			}
			if sum != want {
				t.Fatalf("chunk %x refcount: single %d, cluster sum %d", h[:8], want, sum)
			}
		}
	}
	checkRefcounts()

	// Delete differential: same freed totals, snapshot survives, and the
	// per-chunk identity still holds afterwards.
	sDel, err := ssess.Delete("master")
	if err != nil {
		t.Fatal(err)
	}
	cDel, err := rs.Delete("master")
	if err != nil {
		t.Fatal(err)
	}
	if *cDel != *sDel {
		t.Fatalf("delete stats diverge: single %+v cluster %+v", sDel, cDel)
	}
	if err := rs.Verify("snap", snap); err != nil {
		t.Fatalf("snapshot broken after master delete: %v", err)
	}
	checkRefcounts()

	// Deleting a deleted name is a typed not-found on both sides.
	if _, err := rs.Delete("master"); !errors.Is(err, ingest.ErrNotFound) {
		t.Fatalf("cluster re-delete: %v", err)
	}
	var nf *ingest.NotFoundError
	if _, err := rs.RestoreBytes("master"); !errors.As(err, &nf) || nf.Name != "master" {
		t.Fatalf("cluster restore of deleted name: %v", err)
	}

	// Deleting the last stream must empty every node — recipes,
	// manifests, and refcounts — proving nothing cluster-internal leaks.
	if _, err := rs.Delete("snap"); err != nil {
		t.Fatal(err)
	}
	for i, srv := range tc.srvs {
		if names := srv.Store().RecipeNames(); len(names) != 0 {
			t.Fatalf("node %d still holds recipes %v after deleting everything", i, names)
		}
	}
	for h := range all {
		for i, srv := range tc.srvs {
			if rc := srv.Store().Refcount(h); rc != 0 {
				t.Fatalf("node %d leaks %d refs on %x", i, rc, h[:8])
			}
		}
	}
}

// TestClusterKillNodeMidStream pins chunks on all three nodes, kills one
// owner, and asserts the stream fails with a typed *NodeError naming the
// killed node while the survivors release every pin: the cluster-level
// version of TestAbortedDedupStreamReleasesPins. It runs for each way a
// stream is fed — a dedup client's RoundHas/RoundBody, and Add — and for
// two moments of the kill. "commit" kills once the whole stream is fed:
// only the victim's commit fails, so Commit must delete the sub-streams
// the survivors committed. "feed" kills halfway through: the error comes
// from the feed (or from Commit, should the victim own none of the rest).
func TestClusterKillNodeMidStream(t *testing.T) {
	for _, tc := range []struct {
		name string
		feed func(st *Stream, hs []dedup.Hash, bodies [][]byte) error
	}{
		{"rounds", func(st *Stream, hs []dedup.Hash, bodies [][]byte) error {
			missing, err := st.RoundHas(hs)
			if err != nil {
				return err
			}
			for _, idx := range missing {
				if err := st.RoundBody(bodies[idx]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"add", (*Stream).Add},
	} {
		t.Run(tc.name+"/commit", func(t *testing.T) { killNodeMidStream(t, tc.feed, false) })
		t.Run(tc.name+"/feed", func(t *testing.T) { killNodeMidStream(t, tc.feed, true) })
	}
}

func killNodeMidStream(t *testing.T, feed func(st *Stream, hs []dedup.Hash, bodies [][]byte) error, midFeed bool) {
	spec := chunk.FastCDCSpec(4 << 10)
	tc := startNodes(t, 3)
	c := newTestCluster(t, tc, spec)
	rs := c.NewSession()

	// A committed baseline stream (distinct name) that must survive the
	// failed stream's cleanup untouched.
	base := workload.Random(5, 512<<10)
	if _, err := rs.BackupBytes("baseline", base); err != nil {
		t.Fatal(err)
	}
	baseline := make([]map[dedup.Hash]int64, len(tc.srvs))
	baseHs, _ := chunksOf(t, spec, base)

	data := workload.Random(6, 512<<10)
	hs, bodies := chunksOf(t, spec, data)
	for i := range tc.srvs {
		baseline[i] = make(map[dedup.Hash]int64)
		for _, h := range append(append([]dedup.Hash(nil), baseHs...), hs...) {
			baseline[i][h] = tc.srvs[i].Store().Refcount(h)
		}
	}

	// Every node must own part of the first half, or killing one proves
	// nothing about the others.
	half := len(hs) / 2
	owners := make(map[int]bool)
	for _, h := range hs[:half] {
		owners[c.Ring().Owner(h)] = true
	}
	if len(owners) != len(tc.srvs) {
		t.Fatalf("stream only spans nodes %v — enlarge the workload", owners)
	}

	st, err := c.NewStream("victim", obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	fed := len(hs)
	if midFeed {
		fed = half
	}
	// Both feeds are synchronous: when one returns, every owner has
	// answered its share and is pinning the stream's chunks.
	if err := feed(st, hs[:fed], bodies[:fed]); err != nil {
		t.Fatal(err)
	}
	victim := c.Ring().Owner(hs[0])
	tc.kill(victim)

	if midFeed {
		err = feed(st, hs[fed:], bodies[fed:])
	}
	if err == nil {
		_, err = st.Commit()
	}
	var ne *NodeError
	if !errors.As(err, &ne) {
		t.Fatalf("stream against a dead node ended with %v, want *NodeError", err)
	}
	if ne.Node != tc.topo.Nodes[victim].ID {
		t.Fatalf("NodeError names %q, want the killed node %q", ne.Node, tc.topo.Nodes[victim].ID)
	}
	st.Abort() // idempotent after a failed Commit

	// No leaked pins on the survivors: every refcount returns to its
	// pre-stream value once the aborted sessions unwind.
	waitFor(t, "survivors to release pins", func() bool {
		for i, srv := range tc.srvs {
			if i == victim {
				continue
			}
			for h, want := range baseline[i] {
				if srv.Store().Refcount(h) != want {
					return false
				}
			}
		}
		return true
	})
	// And the failed stream must not have become restorable, nor stayed
	// committed on any node.
	if _, err := rs.RestoreBytes("victim"); err == nil {
		t.Fatal("half-committed stream restored cleanly")
	}
	for i, srv := range tc.srvs {
		for _, name := range srv.Store().RecipeNames() {
			if name == "victim" {
				t.Fatalf("node %d still holds the failed stream's sub-stream", i)
			}
		}
	}
}

// TestClusterRoundHasAfterAdd: a stream fed by Add refuses a fingerprint
// round, so it carries on, commits and restores as the raw backup it
// began as.
func TestClusterRoundHasAfterAdd(t *testing.T) {
	spec := chunk.FastCDCSpec(4 << 10)
	tc := startNodes(t, 3)
	c := newTestCluster(t, tc, spec)
	data := workload.Random(10, 256<<10)
	hs, bodies := chunksOf(t, spec, data)
	half := len(hs) / 2
	st, err := c.NewStream("mixed", obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(hs[:half], bodies[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.RoundHas(hs[half:]); err == nil {
		t.Fatal("RoundHas on a stream fed by Add was accepted")
	}
	if err := st.Add(hs[half:], bodies[half:]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.NewSession().Verify("mixed", data); err != nil {
		t.Fatal(err)
	}
}

// TestClusterAddReachesOwnersBeforeCommit: Add is a round on every owner,
// not a queue. When it returns, each owner has pinned the chunks it
// already held — inside its answer, so the refcounts show at once — and
// has been sent the bodies it lacked, which it stores before it answers
// anything else; both are on the node stores before Commit.
func TestClusterAddReachesOwnersBeforeCommit(t *testing.T) {
	spec := chunk.FastCDCSpec(4 << 10)
	tc := startNodes(t, 3)
	c := newTestCluster(t, tc, spec)
	base := workload.Random(7, 256<<10)
	if _, err := c.NewSession().BackupBytes("base", base); err != nil {
		t.Fatal(err)
	}
	data := append(append([]byte(nil), base...), workload.Random(8, 256<<10)...)
	hs, bodies := chunksOf(t, spec, data)
	baseHs, _ := chunksOf(t, spec, base)
	held := make(map[dedup.Hash]bool)
	for _, h := range baseHs {
		held[h] = true
	}

	st, err := c.NewStream("both", obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(hs, bodies); err != nil {
		t.Fatal(err)
	}
	refcount := func(h dedup.Hash) int64 { return tc.srvs[c.Ring().Owner(h)].Store().Refcount(h) }
	fresh := 0
	for _, h := range hs {
		if !held[h] {
			fresh++
		} else if rc := refcount(h); rc != 2 {
			t.Fatalf("held chunk %x: refcount %d when Add returned, want 2", h[:8], rc)
		}
	}
	if fresh == 0 {
		t.Fatal("no fresh chunk — body uploads are not exercised")
	}
	waitFor(t, "owners to store the fresh chunks", func() bool {
		for _, h := range hs {
			if !held[h] && refcount(h) != 1 {
				return false
			}
		}
		return true
	})
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.NewSession().Verify("both", data); err != nil {
		t.Fatal(err)
	}
}

// TestClusterAddWithBodiesOwed: an Add between a RoundHas and the bodies
// it asked for is refused before anything is sent, so the owed bodies and
// the commit still go through and the stream restores as fed.
func TestClusterAddWithBodiesOwed(t *testing.T) {
	spec := chunk.FastCDCSpec(4 << 10)
	tc := startNodes(t, 3)
	c := newTestCluster(t, tc, spec)
	data := workload.Random(9, 256<<10)
	hs, bodies := chunksOf(t, spec, data)
	st, err := c.NewStream("owed", obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	missing, err := st.RoundHas(hs)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) == 0 {
		t.Fatal("nothing missing — no body is owed")
	}
	if err := st.Add(hs, bodies); err == nil {
		t.Fatal("Add with bodies still owed was accepted")
	}
	for _, idx := range missing {
		if err := st.RoundBody(bodies[idx]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.NewSession().Verify("owed", data); err != nil {
		t.Fatal(err)
	}
}

// TestClusterOverwriteCleansStaleSubStreams re-backs-up a name whose
// chunks move to a different owner and asserts the old owner's
// sub-stream is swept at commit, not left pinning dead chunks.
func TestClusterOverwriteCleansStaleSubStreams(t *testing.T) {
	tc := startNodes(t, 3)
	c := newTestCluster(t, tc, DefaultSpec())

	// Craft one body owned by each of two different nodes.
	bodyOwnedBy := func(node int) ([]byte, dedup.Hash) {
		for seed := int64(0); ; seed++ {
			b := workload.Random(seed, 8<<10)
			h := dedup.Sum(b)
			if c.Ring().Owner(h) == node {
				return b, h
			}
		}
	}
	b0, h0 := bodyOwnedBy(0)
	b1, h1 := bodyOwnedBy(1)

	commitOne := func(body []byte, h dedup.Hash) {
		t.Helper()
		st, err := c.NewStream("evolving", obs.SpanContext{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Add([]dedup.Hash{h}, [][]byte{body}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commitOne(b0, h0)
	commitOne(b1, h1)

	// Node 0's sub-stream was stale after the overwrite; commit sweeps
	// it, so its pin on b0 must drop to zero.
	waitFor(t, "stale sub-stream sweep", func() bool {
		return tc.srvs[0].Store().Refcount(h0) == 0
	})
	rs := c.NewSession()
	if err := rs.Verify("evolving", b1); err != nil {
		t.Fatalf("overwritten stream restores wrong bytes: %v", err)
	}
	if _, err := rs.Delete("evolving"); err != nil {
		t.Fatal(err)
	}
	for i, srv := range tc.srvs {
		if names := srv.Store().RecipeNames(); len(names) != 0 {
			t.Fatalf("node %d still holds %v", i, names)
		}
	}
}

// TestClusterReservedNames: the manifest namespace is not reachable
// through any client-facing operation.
func TestClusterReservedNames(t *testing.T) {
	c, err := New(Config{Topology: testTopology("a"), Spec: DefaultSpec()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs := c.NewSession()
	name := ManifestName("x")
	if _, err := rs.BackupBytes(name, []byte("hi")); !errors.Is(err, ErrReservedName) {
		t.Fatalf("backup of reserved name: %v", err)
	}
	if _, err := rs.RestoreBytes(name); !errors.Is(err, ErrReservedName) {
		t.Fatalf("restore of reserved name: %v", err)
	}
	if _, err := rs.Delete(name); !errors.Is(err, ErrReservedName) {
		t.Fatalf("delete of reserved name: %v", err)
	}
}

// TestClusterDialFailureTyped: an unreachable node surfaces as a
// *NodeError wrapping the transport error, after the configured number
// of bounded retries.
func TestClusterDialFailureTyped(t *testing.T) {
	// A listener we close immediately: the port is valid but refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c, err := New(Config{
		Topology: Topology{Nodes: []Node{{ID: "gone", Addr: addr}}},
		Spec:     DefaultSpec(),
		Dial: ingest.DialOptions{
			Timeout:  500 * time.Millisecond,
			Attempts: 3,
			Backoff:  time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.NewSession().BackupBytes("s", workload.Random(1, 32<<10))
	var ne *NodeError
	if !errors.As(err, &ne) || ne.Node != "gone" {
		t.Fatalf("backup against dead topology: %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("retries are not bounded")
	}
}

// TestClusterSpecBounds: unbounded or over-frame chunk specs are
// rejected at construction — the restore path depends on every chunk
// fitting one frame.
func TestClusterSpecBounds(t *testing.T) {
	unbounded := chunk.DefaultSpec() // MaxSize 0
	if _, err := New(Config{Topology: testTopology("a"), Spec: unbounded}); err == nil {
		t.Fatal("unbounded spec accepted")
	}
	huge := DefaultSpec()
	huge.MaxSize = ingest.DefaultFrameSize + 1
	if _, err := New(Config{Topology: testTopology("a"), Spec: huge}); err == nil {
		t.Fatal("over-frame spec accepted")
	}
}
