package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/persist"
	"shredder/internal/workload"
)

// dedupSpecs are the engine configurations the dedup-path tests run
// under: the server's stock Rabin setup and a FastCDC engine, both
// bounded (a dedup session requires MaxSize within the frame limit).
func dedupSpecs() map[string]chunk.Spec {
	return map[string]chunk.Spec{
		"rabin":   DefaultConfig().Shredder.Chunking,
		"fastcdc": chunk.FastCDCSpec(4 << 10),
	}
}

// TestDedupBackupRoundTrip is the two-phase happy path: a v3 session
// backs up a master and a similar snapshot with client-side chunking,
// restores both byte-exactly, and the wire statistics show the
// snapshot's duplicate bodies never crossed.
func TestDedupBackupRoundTrip(t *testing.T) {
	for name, spec := range dedupSpecs() {
		t.Run(name, func(t *testing.T) {
			srv, err := NewServer(testConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			c := startSession(t, srv)
			accepted, err := c.NegotiateDedup(spec)
			if err != nil {
				t.Fatal(err)
			}
			if accepted != spec {
				t.Fatalf("accepted spec %+v, want %+v", accepted, spec)
			}
			if c.Version() != ProtocolVersion {
				t.Fatalf("session version %d, want %d", c.Version(), ProtocolVersion)
			}

			im := workload.NewImage(51, 4<<20, 64<<10, 0.05)
			snap := im.Snapshot(52)

			mst, err := c.BackupDedupBytes("master", im.Master)
			if err != nil {
				t.Fatal(err)
			}
			if mst.Bytes != int64(len(im.Master)) || mst.Chunks == 0 {
				t.Fatalf("master stats: %+v", mst)
			}
			// A fresh store misses everything: every body crossed, plus
			// fingerprint overhead.
			if mst.Wire.ChunksSent != mst.Chunks || mst.Wire.ChunksSkipped != 0 {
				t.Fatalf("master wire: %+v for %d chunks", mst.Wire, mst.Chunks)
			}
			if mst.Wire.WireBytes <= mst.Bytes {
				t.Fatalf("master wire bytes %d should exceed logical %d (fingerprints ride along)", mst.Wire.WireBytes, mst.Bytes)
			}

			sst, err := c.BackupDedupBytes("snap", snap)
			if err != nil {
				t.Fatal(err)
			}
			if sst.DupChunks == 0 || sst.Wire.ChunksSkipped == 0 {
				t.Fatalf("snapshot skipped nothing: %+v", sst)
			}
			if sst.Wire.WireBytes >= sst.Bytes/2 {
				t.Fatalf("95%%-similar snapshot still moved %d of %d bytes", sst.Wire.WireBytes, sst.Bytes)
			}
			if sst.Wire.ChunksSent+sst.Wire.ChunksSkipped != sst.Chunks {
				t.Fatalf("wire chunk accounting inconsistent: %+v vs %d chunks", sst.Wire, sst.Chunks)
			}
			for name, want := range map[string][]byte{"master": im.Master, "snap": snap} {
				if err := c.Verify(name, want); err != nil {
					t.Fatalf("verify %s: %v", name, err)
				}
			}
		})
	}
}

// TestDedupMatchesRawExactly is the differential guarantee the issue
// demands: a dedup-mode backup of a data series must store the same
// recipes, produce the same aggregate store statistics, and restore
// the same bytes as a raw-mode backup of the same series under the
// same negotiated engine.
func TestDedupMatchesRawExactly(t *testing.T) {
	for name, spec := range dedupSpecs() {
		t.Run(name, func(t *testing.T) {
			im := workload.NewImage(61, 3<<20, 64<<10, 0.1)
			series := map[string][]byte{"master": im.Master, "snap": im.Snapshot(62)}
			order := []string{"master", "snap"}

			run := func(dedupWire bool) (*Server, map[string]StreamStats) {
				srv, err := NewServer(testConfig(8))
				if err != nil {
					t.Fatal(err)
				}
				c := startSession(t, srv)
				if dedupWire {
					if _, err := c.NegotiateDedup(spec); err != nil {
						t.Fatal(err)
					}
				} else {
					if _, err := c.Negotiate(spec); err != nil {
						t.Fatal(err)
					}
				}
				out := make(map[string]StreamStats)
				for _, n := range order {
					var st *StreamStats
					var err error
					if dedupWire {
						st, err = c.BackupDedupBytes(n, series[n])
					} else {
						st, err = c.BackupBytes(n, series[n])
					}
					if err != nil {
						t.Fatalf("%s backup %s: %v", map[bool]string{true: "dedup", false: "raw"}[dedupWire], n, err)
					}
					out[n] = *st
				}
				return srv, out
			}

			rawSrv, rawStats := run(false)
			dedupSrv, dedupStats := run(true)

			// Same aggregate store outcome.
			if rs, ds := rawSrv.Store().Stats(), dedupSrv.Store().Stats(); rs != ds {
				t.Fatalf("store stats diverge: raw %+v dedup %+v", rs, ds)
			}
			// Same per-stream dedup accounting (the wire block differs by
			// design: that is the whole point).
			for _, n := range order {
				r, d := rawStats[n], dedupStats[n]
				r.Wire, d.Wire = WireStats{}, WireStats{}
				if r != d {
					t.Fatalf("stream %s stats diverge: raw %+v dedup %+v", n, r, d)
				}
			}
			// Same recipes, ref for ref.
			for _, n := range order {
				rr, ok1 := rawSrv.Recipe(n)
				dr, ok2 := dedupSrv.Recipe(n)
				if !ok1 || !ok2 {
					t.Fatalf("recipe %s missing: raw %v dedup %v", n, ok1, ok2)
				}
				if !reflect.DeepEqual(rr, dr) {
					t.Fatalf("recipe %s diverges:\nraw   %v\ndedup %v", n, rr[:min(4, len(rr))], dr[:min(4, len(dr))])
				}
			}
			// Same restored bytes.
			c := startSession(t, dedupSrv)
			for _, n := range order {
				if err := c.Verify(n, series[n]); err != nil {
					t.Fatalf("dedup store restore %s: %v", n, err)
				}
			}
		})
	}
}

// TestDedupWireSavingsAt95 pins the acceptance criterion: on a
// 95%-redundant snapshot workload the dedup path must move fewer than
// 10% of raw mode's bytes while restoring byte-identically.
func TestDedupWireSavingsAt95(t *testing.T) {
	spec := DefaultConfig().Shredder.Chunking
	im := workload.NewImage(71, 8<<20, 64<<10, 0.05) // 95% of segments survive
	snap := im.Snapshot(72)

	run := func(dedupWire bool) WireStats {
		srv, err := NewServer(testConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		c := startSession(t, srv)
		var push func(string, []byte) (*StreamStats, error)
		if dedupWire {
			if _, err := c.NegotiateDedup(spec); err != nil {
				t.Fatal(err)
			}
			push = c.BackupDedupBytes
		} else {
			if _, err := c.Negotiate(spec); err != nil {
				t.Fatal(err)
			}
			push = c.BackupBytes
		}
		if _, err := push("master", im.Master); err != nil {
			t.Fatal(err)
		}
		st, err := push("snap", snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Verify("snap", snap); err != nil {
			t.Fatal(err)
		}
		return st.Wire
	}

	raw := run(false)
	dw := run(true)
	if raw.WireBytes != int64(len(snap)) {
		t.Fatalf("raw mode moved %d bytes for a %d-byte snapshot", raw.WireBytes, len(snap))
	}
	if dw.WireBytes*10 >= raw.WireBytes {
		t.Fatalf("dedup wire %d is not <10%% of raw %d (%.1f%%)",
			dw.WireBytes, raw.WireBytes, float64(dw.WireBytes)/float64(raw.WireBytes)*100)
	}
}

// TestConcurrentDedupOverlap races two dedup sessions whose streams
// share most chunks against one server: both may be told "missing" for
// the same fingerprint and both upload it, the store must dedup the
// collision, every stream must restore byte-exactly, and the final
// refcounts must equal each chunk's total reference count across both
// recipes — the invariant the future GC will free chunks by.
func TestConcurrentDedupOverlap(t *testing.T) {
	spec := chunk.FastCDCSpec(4 << 10)
	srv, err := NewServer(testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	golden := workload.NewImage(81, 2<<20, 64<<10, 0.03)
	images := map[string][]byte{
		"vm-a": golden.Snapshot(1),
		"vm-b": golden.Snapshot(2),
	}

	var wg sync.WaitGroup
	errs := make(map[string]error)
	var mu sync.Mutex
	for name, img := range images {
		wg.Add(1)
		go func(name string, img []byte) {
			defer wg.Done()
			c := startSession(t, srv)
			run := func() error {
				if _, err := c.NegotiateDedup(spec); err != nil {
					return err
				}
				if _, err := c.BackupDedupBytes(name, img); err != nil {
					return err
				}
				return c.Verify(name, img)
			}
			mu.Lock()
			errs[name] = run()
			mu.Unlock()
		}(name, img)
	}
	wg.Wait()
	for name, err := range errs {
		if err != nil {
			t.Fatalf("session %s: %v", name, err)
		}
	}

	// Expected refcounts: one per occurrence of the chunk across both
	// streams, counted by splitting the images with the same engine.
	eng, err := chunk.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[dedup.Hash]int64)
	for _, img := range images {
		for _, c := range eng.Split(img) {
			want[dedup.Sum(img[c.Offset:c.End()])]++
		}
	}
	var totalChunks int64
	for h, n := range want {
		if got := srv.Store().Refcount(h); got != n {
			t.Fatalf("refcount %x = %d, want %d", h[:8], got, n)
		}
		totalChunks += n
	}
	if st := srv.Store().Stats(); st.Chunks != totalChunks || st.UniqueChunks != int64(len(want)) {
		t.Fatalf("store accounting %+v, want %d chunks / %d unique", st, totalChunks, len(want))
	}
}

// TestConcurrentDedupDeleteCompactRace is the retention race battery:
// several dedup sessions re-upload heavily overlapping images while
// each expires its previous generation and a GC goroutine compacts
// continuously — against a durable store. Run under -race this is the
// locking proof; the final refcounts must equal each chunk's exact
// occurrence count across the retained recipes (nothing resurrected,
// nothing lost, nothing leaked), and the store must recover to the
// same state after a restart.
func TestConcurrentDedupDeleteCompactRace(t *testing.T) {
	spec := chunk.FastCDCSpec(4 << 10)
	dir := t.TempDir()
	store, err := persist.OpenStore(dir, persist.Options{
		Shards:        8,
		ContainerSize: 64 << 10,
		Fsync:         persist.FsyncPolicy{Mode: persist.FsyncNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithStore(testConfig(8), store)
	if err != nil {
		t.Fatal(err)
	}
	const workers, gens = 4, 3
	golden := workload.NewImage(101, 1<<20, 64<<10, 0.03)
	images := make([][][]byte, workers)
	for w := range images {
		images[w] = make([][]byte, gens)
		for g := range images[w] {
			// Every image is a light churn of the same golden master:
			// heavy chunk overlap across workers AND generations, so
			// deletes constantly race re-uploads of the same hashes.
			images[w][g] = golden.Snapshot(int64(10*w + g))
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := startSession(t, srv)
			run := func() error {
				if _, err := c.NegotiateDedup(spec); err != nil {
					return err
				}
				for g := 0; g < gens; g++ {
					name := fmt.Sprintf("w%d-g%d", w, g)
					if _, err := c.BackupDedupBytes(name, images[w][g]); err != nil {
						return fmt.Errorf("backup %s: %w", name, err)
					}
					if err := c.Verify(name, images[w][g]); err != nil {
						return fmt.Errorf("verify %s: %w", name, err)
					}
					if g > 0 {
						old := fmt.Sprintf("w%d-g%d", w, g-1)
						if _, err := c.Delete(old); err != nil {
							return fmt.Errorf("delete %s: %w", old, err)
						}
					}
				}
				return nil
			}
			errs[w] = run()
		}(w)
	}
	gcDone := make(chan struct{})
	gcStop := make(chan struct{})
	go func() {
		defer close(gcDone)
		for {
			select {
			case <-gcStop:
				return
			default:
			}
			if _, err := store.Compact(0.8); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(gcStop)
	<-gcDone
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// One final pass now that the churn is over.
	if _, err := store.Compact(0.8); err != nil {
		t.Fatal(err)
	}

	// Exact final refcounts: each chunk's occurrence count across the
	// retained (last-generation) recipes, and not one hash more.
	eng, err := chunk.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[dedup.Hash]int64)
	var wantChunks int64
	for w := 0; w < workers; w++ {
		img := images[w][gens-1]
		for _, c := range eng.Split(img) {
			want[dedup.Sum(img[c.Offset:c.End()])]++
			wantChunks++
		}
	}
	check := func(label string) {
		t.Helper()
		for h, n := range want {
			if got := store.Refcount(h); got != n {
				t.Fatalf("%s: refcount %x = %d, want %d", label, h[:8], got, n)
			}
		}
		st := store.Stats()
		if st.UniqueChunks != int64(len(want)) || st.Chunks != wantChunks {
			t.Fatalf("%s: store accounting %+v, want %d chunks / %d unique", label, st, wantChunks, len(want))
		}
		c := startSession(t, srv)
		defer c.Close()
		for w := 0; w < workers; w++ {
			name := fmt.Sprintf("w%d-g%d", w, gens-1)
			if err := c.Verify(name, images[w][gens-1]); err != nil {
				t.Fatalf("%s: retained stream %s: %v", label, name, err)
			}
		}
	}
	check("quiescent")

	// Restart: the churned, compacted store recovers to the same state.
	statsBefore := store.Stats()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = persist.OpenStore(dir, persist.Options{Fsync: persist.FsyncPolicy{Mode: persist.FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := store.Stats(); got != statsBefore {
		t.Fatalf("recovered stats %+v, want %+v", got, statsBefore)
	}
	srv, err = NewServerWithStore(testConfig(8), store)
	if err != nil {
		t.Fatal(err)
	}
	check("recovered")
}

// TestDedupRequiresNegotiation: BackupDedup on a session that never
// negotiated v3 fails client-side with the typed sentinel, before
// anything crosses the wire.
func TestDedupRequiresNegotiation(t *testing.T) {
	c := NewSession(deadConn{})
	if _, err := c.BackupDedupBytes("x", []byte("data")); !errors.Is(err, ErrDedupUnsupported) {
		t.Fatalf("BackupDedup without negotiation = %v, want ErrDedupUnsupported", err)
	}
	// A v2-negotiated session is equally unsupported.
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	c2 := startSession(t, srv)
	if _, err := c2.Negotiate(chunk.FastCDCSpec(4 << 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.BackupDedupBytes("x", []byte("data")); !errors.Is(err, ErrDedupUnsupported) {
		t.Fatalf("BackupDedup on v2 session = %v, want ErrDedupUnsupported", err)
	}
}

// TestBeginDedupBelowV3Rejected: a BeginDedup frame on a session that
// negotiated only version 2 (or nothing) is a protocol violation the
// server answers with a typed error.
func TestBeginDedupBelowV3Rejected(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	conn, br, errc := rawSession(t, srv)
	if err := writeFrame(conn, MsgBeginDedup, []byte("sneak")); err != nil {
		t.Fatal(err)
	}
	typ, reply, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError || !strings.Contains(string(reply), "below protocol version 3") {
		t.Fatalf("reply %d %q", typ, reply)
	}
	conn.Close()
	var fe *UnexpectedFrameError
	if serr := <-errc; !errors.As(serr, &fe) {
		t.Fatalf("server error = %v, want UnexpectedFrameError", serr)
	}
}

// TestNegotiateDedupAgainstCappedServer: a server capped at protocol
// v2 (shredderd -dedup-wire=false, or a genuine v2 build) refuses a v3
// Hello with a reason naming both versions; plain Negotiate still
// works on a fresh session, so callers can fall back to the raw path.
func TestNegotiateDedupAgainstCappedServer(t *testing.T) {
	cfg := testConfig(4)
	cfg.MaxProtocol = 2
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	_, err = c.NegotiateDedup(chunk.FastCDCSpec(4 << 10))
	var ne *NegotiationError
	wantVer := fmt.Sprintf("version %d", ProtocolVersion)
	if !errors.As(err, &ne) || !strings.Contains(ne.Reason, wantVer) || !strings.Contains(ne.Reason, "speaks 2") {
		t.Fatalf("NegotiateDedup against capped server = %v", err)
	}
	// The rejected session is dead; redial and fall back to raw.
	c2 := startSession(t, srv)
	if _, err := c2.Negotiate(chunk.FastCDCSpec(4 << 10)); err != nil {
		t.Fatalf("raw fallback negotiation failed: %v", err)
	}
	data := workload.Random(5, 512<<10)
	st, err := c2.BackupBytes("fallback", data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Wire.WireBytes != st.Bytes {
		t.Fatalf("raw fallback wire %+v, want WireBytes == %d", st.Wire, st.Bytes)
	}
	if err := c2.Verify("fallback", data); err != nil {
		t.Fatal(err)
	}
}

// TestNegotiateDedupUnboundedSpecRejected: dedup sessions need a
// bounded max chunk size (each body is one frame); the client refuses
// locally and the server refuses a hand-rolled Hello the same way.
func TestNegotiateDedupUnboundedSpecRejected(t *testing.T) {
	c := NewSession(deadConn{})
	_, err := c.NegotiateDedup(chunk.DefaultSpec()) // MaxSize 0: unbounded
	var ne *NegotiationError
	if !errors.As(err, &ne) || !strings.Contains(ne.Reason, "bounded") {
		t.Fatalf("client-side unbounded spec = %v", err)
	}

	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	conn, br, _ := rawSession(t, srv)
	if err := writeFrame(conn, MsgHello, encodeHello(ProtocolVersion, chunk.DefaultSpec())); err != nil {
		t.Fatal(err)
	}
	typ, reply, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError || !strings.Contains(string(reply), "bounded") {
		t.Fatalf("server reply %d %q", typ, reply)
	}
}

// failAfterConn passes reads through but starts failing writes once
// limit bytes have gone out — the shape of a broken transport whose
// receive direction still holds the server's parting Error frame
// (with TCP the frame sits in the local receive buffer while sends
// fail).
type failAfterConn struct {
	net.Conn
	written, limit int
}

func (f *failAfterConn) Write(p []byte) (int, error) {
	if f.written >= f.limit {
		return 0, errors.New("simulated broken send path")
	}
	n, err := f.Conn.Write(p)
	f.written += n
	return n, err
}

// TestBackupSurfacesRemoteErrorMidStream: when the server aborts
// mid-stream after sending an Error frame and the client's next write
// fails, the client must surface the server's own text — not a bare
// transport error — so daemon-side store failures are diagnosable from
// backupsim output.
func TestBackupSurfacesRemoteErrorMidStream(t *testing.T) {
	cend, send := net.Pipe()
	// The client's sends fail once the first Data frame (Begin header +
	// name + frame header + 1 MiB payload) is fully out.
	firstFrames := headerSize + 2 + headerSize + DefaultFrameSize
	go func() {
		defer send.Close()
		br := bufio.NewReader(send)
		// Accept Begin and the first Data frame, then abort like a
		// server whose store just failed — without draining the rest.
		if typ, _, err := readFrame(br, nil); err != nil || typ != MsgBegin {
			return
		}
		if typ, _, err := readFrame(br, nil); err != nil || typ != MsgData {
			return
		}
		// Blocks until the client turns around and reads it.
		_ = writeFrame(send, MsgError, []byte("shard 3: disk full"))
	}()
	c := NewSession(&failAfterConn{Conn: cend, limit: firstFrames})
	defer c.Close()
	_, err := c.BackupBytes("vm", workload.Random(11, 8<<20))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("mid-stream abort = %v (%T), want RemoteError", err, err)
	}
	if re.Msg != "shard 3: disk full" || re.Op != "backup" || re.Name != "vm" {
		t.Fatalf("RemoteError = %+v", re)
	}
	if !strings.Contains(err.Error(), "disk full") || !strings.Contains(err.Error(), `"vm"`) {
		t.Fatalf("error text %q does not carry the server diagnosis", err)
	}
}

// TestNeedBatchCodecValidation exercises the decoder's rejection
// paths: misaligned payloads, out-of-range and non-ascending indices.
func TestNeedBatchCodecValidation(t *testing.T) {
	if _, err := decodeNeedBatch([]byte{1, 2, 3}, 4); err == nil {
		t.Fatal("misaligned payload accepted")
	}
	if _, err := decodeNeedBatch(encodeNeedBatch([]int{0, 2, 1}), 4); err == nil {
		t.Fatal("non-ascending indices accepted")
	}
	if _, err := decodeNeedBatch(encodeNeedBatch([]int{0, 4}), 4); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := decodeHasBatch(make([]byte, hashSize+1)); err == nil {
		t.Fatal("misaligned has-batch accepted")
	}
	got, err := decodeNeedBatch(encodeNeedBatch([]int{0, 3, 7}), 8)
	if err != nil || fmt.Sprint(got) != fmt.Sprint([]int{0, 3, 7}) {
		t.Fatalf("round trip = %v, %v", got, err)
	}
}
