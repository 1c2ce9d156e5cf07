package ingest

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"

	"shredder/internal/chunker"
	"shredder/internal/dedup"
	"shredder/internal/workload"
)

// testConfig is the service default with the given shard count and
// smaller store batches, so short test streams still flush several.
func testConfig(shards int) Config {
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.BatchSize = 32
	return cfg
}

// startSession wires a client to the server over an in-memory pipe.
func startSession(t testing.TB, srv *Server) *Session {
	t.Helper()
	cend, send := net.Pipe()
	go func() {
		defer send.Close()
		_ = srv.ServeConn(send)
	}()
	t.Cleanup(func() { cend.Close() })
	return NewSession(cend)
}

// inProcessStats replays the same streams through the sequential
// chunker + dedup.Store path — the pre-service ground truth.
func inProcessStats(t *testing.T, cfg Config, streams [][]byte) dedup.Stats {
	t.Helper()
	chk, err := chunker.New(cfg.Shredder.Chunking.RabinParams())
	if err != nil {
		t.Fatal(err)
	}
	store, err := dedup.NewStore(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range streams {
		for _, c := range chk.Split(data) {
			store.Put(data[c.Offset:c.End()])
		}
	}
	return store.Stats()
}

// TestRoundTrip backs up a master image and a similar snapshot through
// the service path, restores both byte-exactly, and checks the dedup
// statistics match the in-process path exactly.
func TestRoundTrip(t *testing.T) {
	cfg := testConfig(8)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	im := workload.NewImage(1, 4<<20, 64<<10, 0.1)
	snap := im.Snapshot(2)

	mst, err := c.BackupBytes("master", im.Master)
	if err != nil {
		t.Fatal(err)
	}
	if mst.Bytes != int64(len(im.Master)) {
		t.Fatalf("master stream bytes %d, want %d", mst.Bytes, len(im.Master))
	}
	if mst.DupChunks != 0 && mst.UniqueBytes == mst.Bytes {
		t.Fatalf("master stats inconsistent: %+v", mst)
	}
	sst, err := c.BackupBytes("snap", snap)
	if err != nil {
		t.Fatal(err)
	}
	if sst.DupChunks == 0 {
		t.Fatal("snapshot shares no chunks with master: dedup broken")
	}
	if sst.DedupRatio() < 2 {
		t.Fatalf("snapshot dedup ratio %.2f, want > 2 for a 10%%-churn snapshot", sst.DedupRatio())
	}

	// Byte-exact reconstruction over the wire.
	if err := c.Verify("master", im.Master); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify("snap", snap); err != nil {
		t.Fatal(err)
	}

	// Identical dedup accounting to the in-process path.
	want := inProcessStats(t, cfg, [][]byte{im.Master, snap})
	if got := srv.Store().Stats(); got != want {
		t.Fatalf("service stats %+v, in-process path %+v", got, want)
	}
	if sst.Store != srv.Store().Stats() {
		t.Fatalf("final stream carried store stats %+v, store has %+v", sst.Store, srv.Store().Stats())
	}
}

// TestConcurrentSessions multiplexes several client sessions onto one
// server: every client backs up its own VM derived from a shared golden
// image, concurrently. Cross-session dedup must work and every stream
// must restore byte-exactly. Run under -race this exercises the full
// service stack.
func TestConcurrentSessions(t *testing.T) {
	const sessions = 4
	cfg := testConfig(16)
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden := workload.NewImage(7, 2<<20, 64<<10, 0.05)
	images := make([][]byte, sessions)
	for i := range images {
		images[i] = golden.Snapshot(int64(i + 1))
	}
	stats := make([]*StreamStats, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := startSession(t, srv)
			name := fmt.Sprintf("vm-%d", i)
			st, err := c.BackupBytes(name, images[i])
			if err != nil {
				errs[i] = err
				return
			}
			stats[i] = st
			errs[i] = c.Verify(name, images[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	st := srv.Store().Stats()
	var logical int64
	for _, img := range images {
		logical += int64(len(img))
	}
	if st.LogicalBytes != logical {
		t.Fatalf("store saw %d logical bytes, clients sent %d", st.LogicalBytes, logical)
	}
	// VMs share ~95% of a golden image: the store must hold far less
	// than the sum of the streams.
	if st.Ratio() < 2 {
		t.Fatalf("cross-session dedup ratio %.2f, want > 2", st.Ratio())
	}
}

// TestSequentialEqualsConcurrentTotals asserts the aggregate accounting
// is independent of session interleaving: the same images pushed
// concurrently and sequentially produce identical LogicalBytes/Chunks
// and identical StoredBytes.
func TestSequentialEqualsConcurrentTotals(t *testing.T) {
	images := make([][]byte, 3)
	golden := workload.NewImage(21, 1<<20, 32<<10, 0.1)
	for i := range images {
		images[i] = golden.Snapshot(int64(i))
	}

	run := func(concurrent bool) dedup.Stats {
		srv, err := NewServer(testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		if concurrent {
			var wg sync.WaitGroup
			for i, img := range images {
				wg.Add(1)
				go func(i int, img []byte) {
					defer wg.Done()
					c := startSession(t, srv)
					if _, err := c.BackupBytes(fmt.Sprintf("s-%d", i), img); err != nil {
						t.Error(err)
					}
				}(i, img)
			}
			wg.Wait()
		} else {
			c := startSession(t, srv)
			for i, img := range images {
				if _, err := c.BackupBytes(fmt.Sprintf("s-%d", i), img); err != nil {
					t.Fatal(err)
				}
			}
		}
		return srv.Store().Stats()
	}

	seq := run(false)
	con := run(true)
	// Interleaving can only change *which* stream pays for a chunk's
	// first store, never the totals.
	if seq.LogicalBytes != con.LogicalBytes || seq.Chunks != con.Chunks {
		t.Fatalf("logical accounting differs: seq %+v con %+v", seq, con)
	}
	if seq.StoredBytes != con.StoredBytes || seq.UniqueChunks != con.UniqueChunks {
		t.Fatalf("stored accounting differs: seq %+v con %+v", seq, con)
	}
}

// TestRestoreUnknownName checks the error path keeps the session
// usable.
func TestRestoreUnknownName(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	if _, err := c.RestoreBytes("nope"); err == nil {
		t.Fatal("restore of unknown name succeeded")
	}
	// The session survives an application-level error.
	data := workload.Random(3, 256<<10)
	if _, err := c.BackupBytes("after-error", data); err != nil {
		t.Fatalf("session dead after restore error: %v", err)
	}
	if err := c.Verify("after-error", data); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyStream: zero-byte backups are legal and restore to zero
// bytes.
func TestEmptyStream(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	st, err := c.BackupBytes("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != 0 || st.Chunks != 0 {
		t.Fatalf("empty stream produced %+v", st)
	}
	got, err := c.RestoreBytes("empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty stream restored %d bytes", len(got))
	}
}

// TestRestoreOversizedChunk: a pipeline with no MaxSize can cut chunks
// larger than one frame; restore must split them rather than fail.
func TestRestoreOversizedChunk(t *testing.T) {
	cfg := testConfig(4)
	// A 30-bit mask over random data effectively never matches: the
	// whole stream becomes one chunk at finish time.
	cfg.Shredder.Chunking.MaskBits = 30
	cfg.Shredder.Chunking.Marker = 1<<30 - 1
	cfg.Shredder.Chunking.MinSize = 0
	cfg.Shredder.Chunking.MaxSize = 0
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	data := workload.Random(8, 3<<20) // 3 MiB > DefaultFrameSize
	st, err := c.BackupBytes("big", data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks != 1 {
		t.Fatalf("expected one oversized chunk, got %d", st.Chunks)
	}
	if err := c.Verify("big", data); err != nil {
		t.Fatal(err)
	}
}

// TestStatsEncodeDecode round-trips the wire encoding in both layouts:
// the legacy 72-byte payload (which must stay byte-identical and drops
// the Wire block) and the version-3 payload that carries it.
func TestStatsEncodeDecode(t *testing.T) {
	in := StreamStats{
		Bytes: 1, Chunks: 2, DupChunks: 3, UniqueBytes: 4,
		Wire:  WireStats{LogicalBytes: 10, WireBytes: 11, ChunksSent: 12, ChunksSkipped: 13},
		Store: dedup.Stats{LogicalBytes: 5, StoredBytes: 6, Chunks: 7, UniqueChunks: 8, IndexHits: 9},
	}
	legacy := in.encode(2)
	if len(legacy) != statsWireSize {
		t.Fatalf("legacy payload is %d bytes, want %d", len(legacy), statsWireSize)
	}
	out, err := decodeStreamStats(legacy)
	if err != nil {
		t.Fatal(err)
	}
	wantLegacy := in
	wantLegacy.Wire = WireStats{}
	if out != wantLegacy {
		t.Fatalf("legacy round trip: %+v != %+v", out, wantLegacy)
	}
	v3 := in.encode(ProtocolVersion)
	if len(v3) != statsWireSizeV3 {
		t.Fatalf("v3 payload is %d bytes, want %d", len(v3), statsWireSizeV3)
	}
	out, err = decodeStreamStats(v3)
	if err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Fatalf("v3 round trip: %+v != %+v", out, in)
	}
	if _, err := decodeStreamStats(make([]byte, 10)); err == nil {
		t.Fatal("short payload accepted")
	}
}

// TestFrameLimit: oversized frames are rejected, not allocated.
func TestFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgData, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the length field to claim > MaxFrame.
	b := buf.Bytes()
	b[1], b[2], b[3], b[4] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := readFrame(bytes.NewReader(b), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
