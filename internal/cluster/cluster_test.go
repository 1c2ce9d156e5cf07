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
