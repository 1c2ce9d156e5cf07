package ingest

import (
	"bytes"
	"math"
	"net"
	"strings"
	"testing"

	"shredder/internal/obs"
	"shredder/internal/workload"
)

// testCtx is a fixed, valid trace context for wire tests.
func testCtx() obs.SpanContext {
	var ctx obs.SpanContext
	ctx.Trace[0], ctx.Trace[15] = 0xab, 0xcd
	ctx.Span[0], ctx.Span[7] = 0x12, 0x34
	return ctx
}

func TestHelloCtxRoundTrip(t *testing.T) {
	spec := DefaultConfig().Shredder.Chunking
	ctx := testCtx()

	ver, got, gotCtx, err := decodeHello(encodeHelloCtx(ProtocolVersion, spec, ctx))
	if err != nil {
		t.Fatal(err)
	}
	if ver != ProtocolVersion || got != spec || gotCtx != ctx {
		t.Fatalf("round trip = v%d %+v %+v", ver, got, gotCtx)
	}

	// Untraced v4: no trailing field, zero context out.
	ver, got, gotCtx, err = decodeHello(encodeHelloCtx(ProtocolVersion, spec, obs.SpanContext{}))
	if err != nil {
		t.Fatal(err)
	}
	if ver != ProtocolVersion || got != spec || gotCtx.Valid() {
		t.Fatalf("untraced v4 round trip = v%d %+v %+v", ver, got, gotCtx)
	}
}

// TestLegacyHelloByteIdentity: pre-v4 payloads must not change when a
// trace context is offered — old servers parse them by exact layout.
func TestLegacyHelloByteIdentity(t *testing.T) {
	spec := DefaultConfig().Shredder.Chunking
	ctx := testCtx()
	for _, ver := range []byte{2, 3} {
		plain := encodeHello(ver, spec)
		withCtx := encodeHelloCtx(ver, spec, ctx)
		if !bytes.Equal(plain, withCtx) {
			t.Errorf("v%d hello changed with a context: %x vs %x", ver, plain, withCtx)
		}
	}
	// Untraced v4 matches the v3 layout except the version byte.
	v4 := encodeHelloCtx(4, spec, obs.SpanContext{})
	v3 := encodeHello(3, spec)
	if !bytes.Equal(v4[1:], v3[1:]) {
		t.Errorf("untraced v4 hello body diverged from v3: %x vs %x", v4[1:], v3[1:])
	}
}

func TestBeginDedupCtxRoundTrip(t *testing.T) {
	ctx := testCtx()

	// v3: bare name both ways, context never rides.
	if got := encodeBeginDedup(3, "snap", ctx); string(got) != "snap" {
		t.Errorf("v3 begin-dedup payload = %x, want bare name", got)
	}
	name, gotCtx, err := decodeBeginDedup(3, []byte("snap"))
	if err != nil || name != "snap" || gotCtx.Valid() {
		t.Fatalf("v3 decode = %q %+v %v", name, gotCtx, err)
	}

	// v4 traced.
	name, gotCtx, err = decodeBeginDedup(4, encodeBeginDedup(4, "snap", ctx))
	if err != nil || name != "snap" || gotCtx != ctx {
		t.Fatalf("v4 traced decode = %q %+v %v", name, gotCtx, err)
	}
	// v4 untraced.
	name, gotCtx, err = decodeBeginDedup(4, encodeBeginDedup(4, "snap", obs.SpanContext{}))
	if err != nil || name != "snap" || gotCtx.Valid() {
		t.Fatalf("v4 untraced decode = %q %+v %v", name, gotCtx, err)
	}

	// Malformed v4 payloads fail typed, not silently.
	if _, _, err := decodeBeginDedup(4, nil); err == nil {
		t.Error("empty v4 payload decoded")
	}
	if _, _, err := decodeBeginDedup(4, []byte{1, 0xab}); err == nil {
		t.Error("truncated trace context decoded")
	}
	if _, _, err := decodeBeginDedup(4, []byte{7, 'x'}); err == nil {
		t.Error("unknown trace flag decoded")
	}
}

// TestConnectedTrace is the tentpole acceptance check: with one tracer
// shared by client and server, a dedup backup produces a single trace
// whose server spans are remote-parented under the client's root.
func TestConnectedTrace(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{})
	cfg := testConfig(4)
	cfg.Tracer = tr
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cend, send := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer send.Close()
		_ = srv.ServeConn(send)
	}()
	c := NewSession(cend)
	c.SetTracer(tr)
	if _, err := c.NegotiateDedup(cfg.Shredder.Chunking); err != nil {
		t.Fatal(err)
	}
	im := workload.NewImage(1, 1<<20, 32<<10, 0.1)
	if _, err := c.BackupDedupBytes("snap", im.Master); err != nil {
		t.Fatal(err)
	}
	c.Close()
	<-done // server spans must have ended before the snapshot

	var backup *obs.TraceData
	for _, td := range tr.Snapshot() {
		if td.Root == "backup_dedup" {
			backup = &td
			break
		}
	}
	if backup == nil {
		t.Fatal("no backup_dedup trace in snapshot")
	}
	var clientRoot, serverSpan *obs.SpanData
	names := map[string]int{}
	for i, s := range backup.Spans {
		names[s.Name]++
		if s.Name == "backup_dedup" {
			if s.Remote {
				serverSpan = &backup.Spans[i]
			} else if s.ParentID == "" {
				clientRoot = &backup.Spans[i]
			}
		}
	}
	if clientRoot == nil || serverSpan == nil {
		t.Fatalf("trace lacks client root or server span: %v", names)
	}
	if serverSpan.ParentID != clientRoot.SpanID {
		t.Errorf("server span parent %s, want client root %s", serverSpan.ParentID, clientRoot.SpanID)
	}
	// The client root accounts for the stream's time by stage. The image
	// is all new to the server and Rabin-cut, so cutting and hashing it
	// took measurable time; a stage that waited for nothing reports 0.
	for _, k := range []string{"scan_s", "hash_s", "wire_s", "wire_idle_s", "producer_stall_s"} {
		v, ok := clientRoot.Attrs[k].(float64)
		if !ok || v < 0 {
			t.Errorf("client root attribute %s = %v, want a duration in seconds", k, clientRoot.Attrs[k])
		}
		if (k == "scan_s" || k == "hash_s" || k == "wire_s") && v == 0 {
			t.Errorf("client root attribute %s is zero", k)
		}
	}
	// Both sides contribute their pipeline stages to the one tree.
	if names["has_batch"] < 2 {
		t.Errorf("has_batch on only one side: %v", names)
	}
	if names["commit"] < 2 {
		t.Errorf("commit on only one side: %v", names)
	}
	for _, want := range []string{"upload", "recv_bodies", "put_batch"} {
		if names[want] == 0 {
			t.Errorf("no %s span in the connected trace: %v", want, names)
		}
	}
}

// TestUntracedSessionNoSpans: a v4 session with no tracer must mint
// nothing — the nil hot path is the default deployment.
func TestUntracedSessionNoSpans(t *testing.T) {
	cfg := testConfig(2)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	if _, err := c.NegotiateDedup(cfg.Shredder.Chunking); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BackupDedupBytes("snap", bytes.Repeat([]byte("shred"), 1<<16)); err != nil {
		t.Fatal(err)
	}
	var nilTracer *obs.Tracer
	if got := nilTracer.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
}

// TestRawBackupStageTimes: the server's backup root says where a raw
// stream's time went — the pipeline's three stage sums and the session
// goroutine's split between the store and waiting — and the same five
// accumulate in ingest_stage_seconds_total. With neither a tracer nor a
// registry the accounting costs the session nothing it can allocate.
func TestRawBackupStageTimes(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{})
	reg := obs.NewRegistry()
	cfg := testConfig(4)
	cfg.Tracer, cfg.Obs = tr, reg
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cend, send := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer send.Close()
		_ = srv.ServeConn(send)
	}()
	c := NewSession(cend)
	// One stream the pipeline cuts inline and one it overlaps.
	for name, size := range map[string]int{"small": 64 << 10, "long": segmentSize + 1<<20} {
		if _, err := c.BackupBytes(name, workload.Random(int64(size), size)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	<-done

	sums := map[string]float64{}
	roots := 0
	for _, td := range tr.Snapshot() {
		if td.Root != "backup" {
			continue
		}
		roots++
		for _, s := range td.Spans {
			if s.Name != "backup" {
				continue
			}
			for _, k := range []string{"scan_s", "hash_s", "producer_stall_s", "store_s", "store_idle_s"} {
				v, ok := s.Attrs[k].(float64)
				if !ok || v < 0 {
					t.Errorf("backup root of %v: attribute %s = %v, want a duration in seconds", s.Attrs["recipe"], k, s.Attrs[k])
				}
				if (k == "scan_s" || k == "hash_s" || k == "store_s") && v == 0 {
					t.Errorf("backup root of %v: attribute %s is zero", s.Attrs["recipe"], k)
				}
				sums[k] += v
			}
		}
	}
	if roots != 2 {
		t.Fatalf("%d backup traces, want 2", roots)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, stage := range stageNames {
		got := metricValue(t, sb.String(), `ingest_stage_seconds_total{stage="`+stage+`"}`)
		if want := sums[stage+"_s"]; math.Abs(got-want) > 1e-6 {
			t.Errorf("ingest_stage_seconds_total{stage=%q} = %v, the two backup roots sum to %v", stage, got, want)
		}
	}

	var off *serverMetrics
	ft := FeedTimes{Scan: 1, Hash: 2, Stall: 3, Store: 4, Idle: 5}
	if n := testing.AllocsPerRun(100, func() { off.stages(ft) }); n != 0 {
		t.Errorf("stage accounting without a registry allocates %v times per stream", n)
	}
}
