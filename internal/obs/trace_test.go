package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanContextRoundTrip(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := tr.StartRoot("op")
	ctx := sp.Context()
	if !ctx.Valid() {
		t.Fatal("live span context not valid")
	}
	enc := ctx.Encode()
	if len(enc) != SpanContextWireSize {
		t.Fatalf("encoded context %d bytes, want %d", len(enc), SpanContextWireSize)
	}
	got, ok := DecodeSpanContext(enc)
	if !ok || got != ctx {
		t.Fatalf("decode = %+v, %v; want %+v", got, ok, ctx)
	}
	if _, ok := DecodeSpanContext(enc[:23]); ok {
		t.Error("truncated context decoded")
	}
	if _, ok := DecodeSpanContext(make([]byte, SpanContextWireSize)); ok {
		t.Error("all-zero context decoded as valid")
	}
	if (SpanContext{}).Valid() {
		t.Error("zero context claims validity")
	}
	sp.End()
}

func TestSpanTreeSnapshot(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartRoot("backup", Str("recipe", "vm-1"))
	child := root.Child("put_batch", Int("chunks", 64))
	grand := child.Child("fsync")
	grand.End()
	child.End()
	root.Set(Int("bytes", 1024), Float("ratio", 1.5))
	root.End()

	tds := tr.Snapshot()
	if len(tds) != 1 {
		t.Fatalf("snapshot has %d traces, want 1", len(tds))
	}
	td := tds[0]
	if td.Root != "backup" || len(td.Spans) != 3 {
		t.Fatalf("trace root %q, %d spans; want backup, 3", td.Root, len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	if byName["put_batch"].ParentID != byName["backup"].SpanID {
		t.Error("child not parented under root")
	}
	if byName["fsync"].ParentID != byName["put_batch"].SpanID {
		t.Error("grandchild not parented under child")
	}
	if byName["backup"].Attrs["bytes"] != int64(1024) || byName["backup"].Attrs["recipe"] != "vm-1" {
		t.Errorf("root attrs = %v", byName["backup"].Attrs)
	}
	if byName["put_batch"].Attrs["chunks"] != int64(64) {
		t.Errorf("child attrs = %v", byName["put_batch"].Attrs)
	}
	tree := td.Tree()
	for _, want := range []string{"backup", "put_batch", "fsync", "recipe=vm-1", "chunks=64"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestRemoteParenting is the wire scenario: a client root's context
// crosses to a "server" tracer; both halves merge into one tree under
// one trace ID.
func TestRemoteParenting(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	client := tr.StartRoot("backup_dedup")
	ctx, ok := DecodeSpanContext(client.Context().Encode())
	if !ok {
		t.Fatal("context did not survive the wire")
	}
	server := tr.StartRemote("backup_dedup", ctx)
	server.Child("commit").End()
	server.End()
	client.End()

	tds := tr.Snapshot()
	if len(tds) != 1 {
		t.Fatalf("snapshot has %d traces, want 1 (client and server merged)", len(tds))
	}
	td := tds[0]
	if td.TraceID != client.Trace().String() {
		t.Errorf("trace id %s, want client's %s", td.TraceID, client.Trace())
	}
	var remote *SpanData
	for i, s := range td.Spans {
		if s.Remote {
			remote = &td.Spans[i]
		}
	}
	if remote == nil {
		t.Fatalf("no remote-parented span in %+v", td.Spans)
	}
	if remote.ParentID != client.Context().Span.String() {
		t.Error("server span not parented under the client span")
	}
	if !strings.Contains(td.Tree(), "[remote-parent]") {
		t.Errorf("tree does not mark the remote join:\n%s", td.Tree())
	}
}

// TestStartRemoteInvalidContext: a zero context degrades to a fresh
// local root (the legacy-client path).
func TestStartRemoteInvalidContext(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := tr.StartRemote("negotiate", SpanContext{})
	if sp == nil || sp.Trace().IsZero() {
		t.Fatal("invalid context did not start a local root")
	}
	sp.End()
	if n := len(tr.Snapshot()); n != 1 {
		t.Fatalf("snapshot has %d traces, want 1", n)
	}
}

func TestSlowRetentionAndCallback(t *testing.T) {
	var slowNames []string
	// The threshold leaves a wide margin so a loaded CI machine cannot
	// push a no-op root span over it.
	tr := NewTracer(TracerConfig{
		Recent:        2, // tiny: fast traces evict each other
		SlowThreshold: 50 * time.Millisecond,
		OnSlow:        func(root *Span) { slowNames = append(slowNames, root.Name()) },
	})
	slow := tr.StartRoot("slow_op")
	time.Sleep(60 * time.Millisecond)
	slow.End()
	for i := 0; i < 8; i++ {
		tr.StartRoot("noop").End() // sub-threshold churn past the recent ring
	}
	if len(slowNames) != 1 || slowNames[0] != "slow_op" {
		t.Fatalf("OnSlow saw %v, want [slow_op]", slowNames)
	}
	found := false
	for _, td := range tr.Snapshot() {
		if td.Root == "slow_op" {
			found = true
			if !td.Slow {
				t.Error("retained slow trace not flagged Slow")
			}
			if !strings.Contains(td.Tree(), "SLOW") {
				t.Error("tree does not flag SLOW")
			}
		}
	}
	if !found {
		t.Fatal("slow trace evicted despite the slow ring")
	}
}

func TestSpanBudget(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxSpansPerTrace: 3})
	root := tr.StartRoot("op")
	a := root.Child("a")
	b := root.Child("b")
	over := root.Child("over") // budget of 3 spans exhausted
	if over != nil {
		t.Fatal("over-budget child allocated")
	}
	over.Child("nested").End() // all nil, all no-ops
	a.End()
	b.End()
	root.End()
	td := tr.Snapshot()[0]
	if len(td.Spans) != 3 || td.Dropped != 1 {
		t.Fatalf("spans %d dropped %d, want 3 and 1", len(td.Spans), td.Dropped)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Snapshot() != nil {
		t.Error("nil tracer snapshot not nil")
	}
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	sp.Set(Int("k", 1))
	sp.Child("c").End()
	sp.End()
	if sp.Context().Valid() || !sp.Trace().IsZero() || sp.Name() != "" || sp.Duration() != 0 {
		t.Error("nil span leaks state")
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"traces": []`) {
		t.Errorf("nil tracer JSON = %q", b.String())
	}
	var h *Histogram
	h.ObserveSince(time.Now())
	h.ObserveExemplar(1, TraceID{})
	h.ObserveSinceExemplar(time.Now(), TraceID{})
}

func TestTraceWriteJSON(t *testing.T) {
	tr := NewTracer(TracerConfig{SlowThreshold: 250 * time.Millisecond})
	root := tr.StartRoot("restore", Str("recipe", `quo"ted`))
	root.Child("lookup").End()
	root.End()
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SlowThresholdSeconds float64     `json:"slow_threshold_seconds"`
		Traces               []TraceData `json:"traces"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if doc.SlowThresholdSeconds != 0.25 {
		t.Errorf("slow_threshold_seconds = %v", doc.SlowThresholdSeconds)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].Root != "restore" || len(doc.Traces[0].Spans) != 2 {
		t.Fatalf("traces = %+v", doc.Traces)
	}
	if doc.Traces[0].Spans[0].Attrs["recipe"] != `quo"ted` {
		t.Errorf("attr did not survive JSON: %v", doc.Traces[0].Spans[0].Attrs)
	}
}

// TestHistogramExemplar: an exemplar observation pins its trace to the
// receiving bucket and renders in the JSON snapshot (and only there —
// the text format must stay 0.0.4-clean).
func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds", "op", []float64{1, 10})
	tr := NewTracer(TracerConfig{})
	sp := tr.StartRoot("op")
	h.ObserveExemplar(5, sp.Trace()) // lands in the le=10 bucket
	h.Observe(0.5)                   // no exemplar
	sp.End()

	var txt strings.Builder
	if err := r.WritePrometheus(&txt); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(txt.String(), "exemplar") {
		t.Error("text exposition leaked exemplar tokens")
	}
	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(js.String()), &m); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	key := `op_seconds_exemplar{le="10"}`
	v, ok := m[key].(string)
	if !ok {
		t.Fatalf("no %s in %v", key, m)
	}
	if !strings.Contains(v, "trace_id="+sp.Trace().String()) || !strings.Contains(v, "value=5") {
		t.Errorf("exemplar = %q", v)
	}
	if _, ok := m[`op_seconds_exemplar{le="1"}`]; ok {
		t.Error("bucket without exemplar rendered one")
	}
}

// TestLabelEscaping: quotes, newlines and backslashes in label values
// must render escaped in the text exposition and survive the JSON
// snapshot exactly.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	raw := "a\"b\\c\nd"
	r.Counter("esc_total", "esc", "path", raw).Add(3)

	var txt strings.Builder
	if err := r.WritePrometheus(&txt); err != nil {
		t.Fatal(err)
	}
	wantText := `esc_total{path="a\"b\\c\nd"} 3`
	if !strings.Contains(txt.String(), wantText) {
		t.Errorf("text exposition = %q, want it to contain %q", txt.String(), wantText)
	}
	if strings.Contains(txt.String(), "\nd\"}") {
		t.Error("raw newline leaked into the text exposition")
	}

	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(js.String()), &m); err != nil {
		t.Fatalf("JSON snapshot invalid with escaped labels: %v\n%s", err, js.String())
	}
	// The JSON key is the fully qualified series name — the same
	// exposition-escaped label string, then JSON-quoted.
	if m[`esc_total{path="a\"b\\c\nd"}`] != 3.0 {
		t.Errorf("escaped series missing from JSON snapshot: %v", m)
	}
}

// TestDebugTracesConcurrent hammers /debug/traces and /metrics while
// spans are minted and ended on many goroutines — the -race proof for
// the ring and snapshot paths.
func TestDebugTracesConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "c", []float64{1})
	tr := NewTracer(TracerConfig{Recent: 8, Slow: 4, SlowThreshold: time.Nanosecond})
	admin := NewAdmin(r, nil)
	admin.SetTracer(tr)
	ts := httptest.NewServer(admin)
	defer ts.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				root := tr.StartRoot(fmt.Sprintf("op-%d", g), Int("i", int64(i)))
				c := root.Child("stage")
				h.ObserveSinceExemplar(time.Now(), root.Trace())
				c.End()
				root.End()
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		for _, path := range []string{"/debug/traces", "/metrics?format=json", "/statusz"} {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("%s: %d", path, resp.StatusCode)
			}
			if path == "/debug/traces" {
				var doc map[string]any
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Fatalf("/debug/traces invalid JSON under churn: %v", err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	bi := RegisterBuildInfo(r)
	if bi.GoVersion == "" {
		t.Error("build info has no Go version")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "shredder_build_info{") || !strings.Contains(out, `go="`+bi.GoVersion+`"`) {
		t.Errorf("build info gauge missing:\n%s", out)
	}
}

// TestDisabledTracingAllocatesNothing is the gate behind "nil means no
// overhead beyond a nil check": the instrumentation every layer calls
// unconditionally must not allocate when tracing and metrics are off —
// a nil *Span's child/set/end, and ObserveSince on the histogram a nil
// registry hands out.
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	var tr *Tracer
	n0 := time.Now().UnixNano() // not a constant, so the attributes are built at run time
	if n := testing.AllocsPerRun(100, func() {
		sp := tr.StartRoot("op")
		c := sp.Child("stage", Int("i", 1))
		c.Set(Int("n", 1))
		c.End()
		// A root's end-of-stream stage sums: five durations in seconds.
		d := time.Duration(n0)
		sp.Set(Float("scan_s", d.Seconds()), Float("hash_s", d.Seconds()),
			Float("producer_stall_s", d.Seconds()), Float("store_s", d.Seconds()),
			Float("store_idle_s", d.Seconds()))
		sp.End()
	}); n != 0 {
		t.Errorf("nil-span child/set/end allocates %v times per run", n)
	}
	var reg *Registry
	h := reg.Histogram("off_seconds", "off", nil)
	if n := testing.AllocsPerRun(100, func() { h.ObserveSince(time.Now()) }); n != 0 {
		t.Errorf("nil-registry ObserveSince allocates %v times per run", n)
	}
}

// BenchmarkSpanDisabled is the nil-tracer hot path: the cost a fully
// instrumented call tree pays when tracing is off must stay at a few
// nil checks (0 allocs).
func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartRoot("op")
		c := sp.Child("stage", Int("i", int64(i)))
		c.Set(Int("n", 1))
		c.End()
		sp.End()
	}
}

// BenchmarkSpanEnabled is the same tree with a live tracer.
func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer(TracerConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.StartRoot("op")
		c := sp.Child("stage", Int("i", int64(i)))
		c.Set(Int("n", 1))
		c.End()
		sp.End()
	}
}

// BenchmarkObserveSince is the shared timer helper on a live histogram.
func BenchmarkObserveSince(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "b", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveSince(time.Now())
	}
}

// BenchmarkObserveSinceNil is the same call on the uninstrumented path.
func BenchmarkObserveSinceNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveSince(time.Now())
	}
}
