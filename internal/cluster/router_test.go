package cluster

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/workload"
)

// startRouter boots a Router over tc on a loopback listener and
// returns its address.
func startRouter(t *testing.T, c *Cluster) string {
	t.Helper()
	r := NewRouter(c, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		r.Shutdown(2 * time.Second)
	})
	return ln.Addr().String()
}

// TestRouterDedupClientRoundTrip drives an ordinary dedup-protocol
// client against the router: the client neither knows nor negotiates
// anything cluster-specific, yet its stream lands sharded across three
// nodes and comes back byte-identical.
func TestRouterDedupClientRoundTrip(t *testing.T) {
	tc := startNodes(t, 3)
	reg := obs.NewRegistry()
	c, err := New(Config{
		Topology: tc.topo,
		Spec:     DefaultSpec(),
		Obs:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	addr := startRouter(t, c)

	sess, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	spec := chunk.FastCDCSpec(8 << 10)
	if _, err := sess.NegotiateDedup(spec); err != nil {
		t.Fatal(err)
	}

	im := workload.NewImage(17, 1<<20, 64<<10, 0.5)
	snap := im.Snapshot(18)
	if _, err := sess.BackupDedupBytes("master", im.Master); err != nil {
		t.Fatal(err)
	}
	st, err := sess.BackupDedupBytes("snap", snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Wire.ChunksSkipped == 0 {
		t.Fatal("no chunks deduped across the router — snapshot shares nothing")
	}
	if err := sess.Verify("master", im.Master); err != nil {
		t.Fatal(err)
	}
	if err := sess.Verify("snap", snap); err != nil {
		t.Fatal(err)
	}

	// The chunks must actually be sharded: more than one node holds data.
	populated := 0
	for _, srv := range tc.srvs {
		if len(srv.Store().RecipeNames()) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("only %d node(s) hold data — routing is not sharding", populated)
	}

	// Delete through the router; unknown names are typed on the client
	// and the session survives both.
	if _, err := sess.Delete("master"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Delete("master"); !errors.Is(err, ingest.ErrNotFound) {
		t.Fatalf("re-delete through router: %v", err)
	}
	var nf *ingest.NotFoundError
	if _, err := sess.RestoreBytes("master"); !errors.As(err, &nf) || nf.Name != "master" {
		t.Fatalf("restore of deleted name through router: %v", err)
	}
	if err := sess.Verify("snap", snap); err != nil {
		t.Fatalf("session did not survive application errors: %v", err)
	}

	// Per-node metrics exist and saw traffic; the client-facing side is
	// counted by the shared front end, under a shredderd's own names.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, want := range []string{
		`cluster_node_up{node="n0"} 1`,
		`ingest_frames_total{type="has_batch"}`,
		"ingest_sessions_active 1",
		`cluster_node_tx_bytes_total{node="`,
		`cluster_streams_total{op="restore"}`,
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("scrape is missing %q:\n%s", want, scrape)
		}
	}
}

// TestRouterLegacyRawClient: a v1-style client (no Hello at all) backs
// up through the router — the router chunks the stream itself with the
// cluster spec and shards it.
func TestRouterLegacyRawClient(t *testing.T) {
	tc := startNodes(t, 3)
	c := newTestCluster(t, tc, DefaultSpec())
	addr := startRouter(t, c)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sess := ingest.NewSession(conn)
	defer sess.Close()
	data := workload.Random(23, 768<<10)
	st, err := sess.BackupBytes("legacy", data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != int64(len(data)) {
		t.Fatalf("stats say %d bytes, sent %d", st.Bytes, len(data))
	}
	if err := sess.Verify("legacy", data); err != nil {
		t.Fatal(err)
	}
}

// TestRouterNegotiatedRawClient: a v2-negotiated raw session picks its
// own (bounded) spec and the router honors it.
func TestRouterNegotiatedRawClient(t *testing.T) {
	tc := startNodes(t, 3)
	c := newTestCluster(t, tc, DefaultSpec())
	addr := startRouter(t, c)

	sess, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	spec := chunk.FastCDCSpec(4 << 10)
	got, err := sess.Negotiate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algo != spec.Algo || got.MaxSize != spec.MaxSize {
		t.Fatalf("negotiated %+v, asked %+v", got, spec)
	}
	data := workload.Text(29, 512<<10)
	if _, err := sess.BackupBytes("text", data); err != nil {
		t.Fatal(err)
	}
	if err := sess.Verify("text", data); err != nil {
		t.Fatal(err)
	}
}

// TestRouterRejectsUnboundedSpec: specs without a max chunk size are
// fine on a single node but break routed restores, so the router must
// refuse them at negotiation with a clear reason.
func TestRouterRejectsUnboundedSpec(t *testing.T) {
	tc := startNodes(t, 1)
	c := newTestCluster(t, tc, DefaultSpec())
	addr := startRouter(t, c)

	sess, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	_, err = sess.Negotiate(chunk.DefaultSpec()) // MaxSize 0: unbounded
	if err == nil {
		t.Fatal("router accepted an unbounded chunk spec")
	}
	if !strings.Contains(err.Error(), "max chunk size") {
		t.Fatalf("rejection does not explain the bound: %v", err)
	}
}

// TestRouterReservedNameRejected: the manifest namespace is fenced off
// at the router's edge too.
func TestRouterReservedNameRejected(t *testing.T) {
	tc := startNodes(t, 1)
	c := newTestCluster(t, tc, DefaultSpec())
	addr := startRouter(t, c)

	sess, err := ingest.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.NegotiateDedup(chunk.FastCDCSpec(8 << 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.BackupDedupBytes(ManifestName("x"), []byte("nope")); err == nil {
		t.Fatal("router accepted a backup into the reserved namespace")
	}
}

// TestRouterRawRejectionDrains: a raw backup the router refuses must
// still be read to its End before the Error frame goes out. Over an
// unbuffered transport anything else deadlocks — the client blocked
// writing Data, the router blocked writing the error.
func TestRouterRawRejectionDrains(t *testing.T) {
	tc := startNodes(t, 1)
	c := newTestCluster(t, tc, DefaultSpec())
	r := NewRouter(c, 0)
	cend, send := net.Pipe()
	go func() {
		defer send.Close()
		_ = r.ServeConn(send)
	}()
	sess := ingest.NewSession(cend)
	defer sess.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := sess.BackupBytes(ManifestName("x"), workload.Random(31, 4<<20))
		errc <- err
	}()
	select {
	case err := <-errc:
		var re *ingest.RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "reserved") {
			t.Fatalf("raw backup into the reserved namespace: %v, want a *RemoteError naming it", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("raw backup into the reserved namespace hangs instead of failing")
	}
}

// TestRouterTruncatedRawStreamTyped: a raw stream cut off before its
// End frame ends the session with the protocol's typed error, and is
// counted as one.
func TestRouterTruncatedRawStreamTyped(t *testing.T) {
	tc := startNodes(t, 1)
	reg := obs.NewRegistry()
	c, err := New(Config{Topology: tc.topo, Spec: DefaultSpec(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	r := NewRouter(c, 0)
	cend, send := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		defer send.Close()
		errc <- r.ServeConn(send)
	}()
	if err := ingest.WriteFrame(cend, ingest.MsgBegin, []byte("cut")); err != nil {
		t.Fatal(err)
	}
	if err := ingest.WriteFrame(cend, ingest.MsgData, workload.Random(37, 64<<10)); err != nil {
		t.Fatal(err)
	}
	cend.Close()

	select {
	case err := <-errc:
		var te *ingest.TruncatedError
		if !errors.As(err, &te) {
			t.Fatalf("session over a truncated raw stream ended with %v, want *TruncatedError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session did not end after the client vanished mid-stream")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `ingest_protocol_errors_total{kind="truncated"} 1`; !strings.Contains(buf.String(), want) {
		t.Fatalf("scrape is missing %q:\n%s", want, buf.String())
	}
}
