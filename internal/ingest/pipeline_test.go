package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// TestChunkPipelineMatchesSplit drives the pipeline with no session
// around it: the batches, in order, must be exactly the engine's Split
// of the stream with every chunk's SHA-256, whatever the relation
// between chunk size, batch size and segment size — including specs
// whose chunks are larger than a batch and nearly as large as a
// segment, where one batch's views span several segments.
func TestChunkPipelineMatchesSplit(t *testing.T) {
	big := chunk.FastCDCSpec(1 << 20) // 256 KiB .. 4 MiB chunks
	huge := chunk.Spec{Algo: chunk.AlgoFastCDC, AvgSize: 4 << 20, MinSize: 1 << 20, MaxSize: 12 << 20, Normalization: 1}
	forced := DefaultConfig().Shredder.Chunking // on zeros every cut is a forced MaxSize cut
	cases := []struct {
		name    string
		spec    chunk.Spec
		workers int
		data    []byte
	}{
		{"fastcdc-4k", chunk.FastCDCSpec(4 << 10), 0, workload.Random(1, 9<<20+777)},
		{"fastcdc-1m", big, 0, workload.Random(2, 40<<20+1)},
		{"fastcdc-4m", huge, 0, workload.Random(3, 64<<20)},
		{"rabin-zeros", forced, 0, make([]byte, 5<<20)},
		{"parallel-8-fastcdc-4k", chunk.FastCDCSpec(4 << 10), 8, workload.Random(4, 20<<20+5)},
		{"parallel-16-rabin", forced, 16, workload.Random(5, 12<<20)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && len(tc.data) > 16<<20 {
				t.Skip("large stream")
			}
			eng, err := chunk.New(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			want := eng.Split(tc.data)
			if tc.workers > 0 {
				eng = chunk.NewParallel(eng, tc.workers)
			}
			pool := newSegmentPool(pipelineDepth + 2)
			before := runtime.NumGoroutine()
			p := startChunkPipeline(bytes.NewReader(tc.data), eng, pool)
			var off int64
			i := 0
			for {
				b, err := p.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(b.bodies) == 0 || len(b.bodies) > batchChunks || len(b.hashes) != len(b.bodies) {
					t.Fatalf("batch of %d bodies, %d hashes", len(b.bodies), len(b.hashes))
				}
				for j, body := range b.bodies {
					if i >= len(want) || int64(len(body)) != want[i].Length || want[i].Offset != off {
						t.Fatalf("chunk %d: %d bytes at %d, want %+v", i, len(body), off, want[min(i, len(want)-1)])
					}
					if !bytes.Equal(body, tc.data[off:off+int64(len(body))]) {
						t.Fatalf("chunk %d at %d: body is not the stream's bytes", i, off)
					}
					if b.hashes[j] != dedup.Sum(body) {
						t.Fatalf("chunk %d: wrong fingerprint", i)
					}
					off += int64(len(body))
					i++
				}
				b.release()
			}
			if i != len(want) || off != int64(len(tc.data)) {
				t.Fatalf("pipeline produced %d chunks / %d bytes, want %d / %d", i, off, len(want), len(tc.data))
			}
			p.stop()
			quiesced(t, before, pool)
		})
	}
}

// quiesced checks what every BackupDedup outcome must leave behind: no
// goroutine beyond the ones running before it, and every segment back
// in the pool.
func quiesced(t *testing.T, before int, pool *segmentPool) {
	t.Helper()
	// A goroutine that has signalled its exit may be counted for a
	// moment longer.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines running, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
			break
		}
		time.Sleep(time.Millisecond)
	}
	if pool != nil && !pool.quiet() {
		t.Errorf("%d of %d segments back in the pool", len(pool.avail), cap(pool.avail))
	}
}

// recConn records every byte the client sends.
type recConn struct {
	net.Conn
	sent bytes.Buffer
}

func (c *recConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Write(p[:n])
	return n, err
}

// dedupOutcome is everything one dedup backup leaves that a peer or an
// operator could observe.
type dedupOutcome struct {
	sent   []byte
	recipe shardstore.Recipe
	stats  StreamStats
}

// runDedupClient backs data up over the dedup wire against a fresh
// server holding preload (when non-nil), with the pipelined client or
// the sequential oracle, reading through wrap.
func runDedupClient(t *testing.T, spec chunk.Spec, workers int, preload, data []byte, wrap func(io.Reader) io.Reader, sequential bool) dedupOutcome {
	t.Helper()
	srv, err := NewServer(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if preload != nil {
		c0 := startSession(t, srv)
		if _, err := c0.Negotiate(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := c0.BackupBytes("base", preload); err != nil {
			t.Fatal(err)
		}
	}
	cend, send := net.Pipe()
	go func() {
		defer send.Close()
		_ = srv.ServeConn(send)
	}()
	rc := &recConn{Conn: cend}
	c := NewSession(rc)
	defer c.Close()
	c.SetParallelChunking(workers)
	if _, err := c.NegotiateDedup(spec); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var st *StreamStats
	if sequential {
		st, err = c.backupDedupSequential("s", bytes.NewReader(data))
	} else {
		st, err = c.BackupDedup("s", wrap(bytes.NewReader(data)))
		quiesced(t, before, c.feed.segs)
	}
	if err != nil {
		t.Fatalf("sequential=%v: %v", sequential, err)
	}
	if err := c.Verify("s", data); err != nil {
		t.Fatalf("sequential=%v: %v", sequential, err)
	}
	recipe, ok := srv.Recipe("s")
	if !ok {
		t.Fatalf("sequential=%v: no recipe committed", sequential)
	}
	return dedupOutcome{sent: rc.sent.Bytes(), recipe: recipe, stats: *st}
}

// TestDedupWireIdentity: the pipelined client must be indistinguishable
// from the sequential one it replaced — the complete client→server byte
// stream, the committed recipe and the stats (stream, wire and store)
// are equal, for every engine, stream size, duplicate share and read
// pattern. The oracle always reads plainly: what the engines cut does
// not depend on how the bytes arrive, so short reads may only change
// the pipelined side.
func TestDedupWireIdentity(t *testing.T) {
	full := workload.Random(71, 9<<20+4321)
	engines := []struct {
		name    string
		spec    chunk.Spec
		workers int
	}{
		{"rabin", DefaultConfig().Shredder.Chunking, 0},
		{"fastcdc", chunk.FastCDCSpec(4 << 10), 0},
		{"parallel-rabin", DefaultConfig().Shredder.Chunking, 2},
		{"parallel-fastcdc", chunk.FastCDCSpec(4 << 10), 3},
	}
	plain := func(r io.Reader) io.Reader { return r }
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"one-byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data-err", iotest.DataErrReader},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			eng, err := chunk.New(e.spec)
			if err != nil {
				t.Fatal(err)
			}
			// Two full rounds and nothing after them: the stream ends on
			// the boundary of its 512th chunk.
			rounds := eng.Split(full)[2*batchChunks-1].End()
			sizes := []struct {
				name string
				n    int
			}{
				{"empty", 0},
				{"one-byte", 1},
				{"under-one-round", 100 << 10},
				{"two-rounds-exactly", int(rounds)},
				{"one-segment-exactly", segmentSize},
				{"segments-and-tail", len(full)},
			}
			check := func(t *testing.T, preload, data []byte, wrap func(io.Reader) io.Reader) {
				t.Helper()
				want := runDedupClient(t, e.spec, e.workers, preload, data, plain, true)
				got := runDedupClient(t, e.spec, e.workers, preload, data, wrap, false)
				if !bytes.Equal(got.sent, want.sent) {
					i := 0
					for i < len(got.sent) && i < len(want.sent) && got.sent[i] == want.sent[i] {
						i++
					}
					t.Fatalf("client byte streams differ at %d (pipelined %d bytes, sequential %d)", i, len(got.sent), len(want.sent))
				}
				if !reflect.DeepEqual(got.recipe, want.recipe) {
					t.Fatal("recipes differ")
				}
				if got.stats != want.stats {
					t.Fatalf("stats differ:\npipelined  %+v\nsequential %+v", got.stats, want.stats)
				}
			}
			// Under the race detector a Rabin scan of a large stream takes
			// seconds, and what the large cases exercise — segment
			// hand-over, short reads — does not depend on the engine: the
			// Rabin engines keep one of them.
			slow := raceEnabled && e.spec.Algo == chunk.AlgoRabin
			for _, sz := range sizes {
				data := full[:sz.n]
				if testing.Short() && sz.n > 1<<20 {
					continue
				}
				dups := []struct {
					name    string
					preload []byte
				}{
					{"dup0", nil},
					{"dup90", workload.MutateClusteredReplace(data, 72, 10, 8)},
					{"dup100", data},
				}
				for _, d := range dups {
					if slow && sz.n > 1<<20 && (sz.n != len(full) || d.name != "dup90") {
						continue
					}
					t.Run(sz.name+"/"+d.name, func(t *testing.T) { check(t, d.preload, data, plain) })
				}
			}
			// Short reads, over a stream that crosses a segment boundary.
			data := full[:segmentSize+123<<10]
			for _, r := range readers {
				if testing.Short() || slow {
					break
				}
				t.Run("reader-"+r.name, func(t *testing.T) {
					check(t, workload.MutateClusteredReplace(data, 73, 10, 8), data, r.wrap)
				})
			}
		})
	}
}

var errBoom = errors.New("source device failed")

// failingReader yields n bytes of data, then err.
func failingReader(data []byte, n int, err error) io.Reader {
	return io.MultiReader(bytes.NewReader(data[:n]), iotest.ErrReader(err))
}

// scriptedServer is the far end of a dedup session played by script: it
// accepts the Hello, hands script the connection, and closes it when
// script returns.
func scriptedServer(t *testing.T, spec chunk.Spec, script func(br *bufio.Reader, conn net.Conn)) *Session {
	t.Helper()
	cend, send := net.Pipe()
	go func() {
		defer send.Close()
		br := bufio.NewReader(send)
		if typ, _, err := readFrame(br, nil); err != nil || typ != MsgHello {
			return
		}
		if err := writeFrame(send, MsgAccept, encodeHello(ProtocolVersion, spec)); err != nil {
			return
		}
		script(br, send)
	}()
	c := NewSession(cend)
	t.Cleanup(func() { c.Close() })
	if _, err := c.NegotiateDedup(spec); err != nil {
		t.Fatal(err)
	}
	return c
}

// expectFrame reads one frame of the wanted type.
func expectFrame(br *bufio.Reader, want byte) ([]byte, error) {
	typ, payload, err := readFrame(br, nil)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("frame %s, want %s", frameName[typ], frameName[want])
	}
	return payload, nil
}

// TestBackupDedupFailures: however a dedup backup fails, the caller
// gets the root cause, no goroutine outlives the call, every segment is
// back in the pool — and the session is dead, as BackupDedup documents.
func TestBackupDedupFailures(t *testing.T) {
	spec := chunk.FastCDCSpec(4 << 10)
	data := workload.Random(81, 10<<20)

	// A source that fails is not a source that ended: whatever error it
	// reports — io.ErrUnexpectedEOF from a truncated archive included —
	// comes back as it is, nothing is committed, and the server has seen
	// exactly what the sequential client would have shown it: the rounds
	// the delivered bytes completed, the last of them included when they
	// arrive together with the error.
	//
	// The source fails right where a round closes: FastCDC cuts a chunk
	// once MaxSize bytes from its start are in, so the last byte
	// delivered is the one that completes the fourth round.
	eng, err := chunk.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	failAt := int(eng.Split(data)[4*batchChunks-1].Offset) + eng.Spec().MaxSize
	sources := []struct {
		name string
		err  error
		wrap func(io.Reader) io.Reader
	}{
		{"source-fails-mid-stream", errBoom, func(r io.Reader) io.Reader { return r }},
		{"source-fails-with-its-last-bytes", errBoom, iotest.DataErrReader},
		{"source-truncated", io.ErrUnexpectedEOF, func(r io.Reader) io.Reader { return r }},
	}
	for _, tc := range sources {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sequential bool) []byte {
				srv, err := NewServer(testConfig(4))
				if err != nil {
					t.Fatal(err)
				}
				cend, send := net.Pipe()
				go func() {
					defer send.Close()
					_ = srv.ServeConn(send)
				}()
				rc := &recConn{Conn: cend}
				c := NewSession(rc)
				defer c.Close()
				if _, err := c.NegotiateDedup(spec); err != nil {
					t.Fatal(err)
				}
				src := tc.wrap(failingReader(data, failAt, tc.err))
				if sequential {
					_, err = c.backupDedupSequential("doomed", src)
				} else {
					before := runtime.NumGoroutine()
					_, err = c.BackupDedup("doomed", src)
					quiesced(t, before, c.feed.segs)
				}
				if err != tc.err {
					t.Fatalf("sequential=%v: failing source = %v, want the reader's own %v", sequential, err, tc.err)
				}
				if _, ok := srv.Recipe("doomed"); ok {
					t.Fatalf("sequential=%v: recipe committed for a stream whose source failed", sequential)
				}
				sent := append([]byte(nil), rc.sent.Bytes()...)
				// The stream is stranded half-sent: the session cannot
				// carry another operation.
				if _, err := c.BackupDedupBytes("again", data[:64<<10]); err == nil {
					t.Fatalf("sequential=%v: session still usable after a stream was abandoned mid-way", sequential)
				}
				return sent
			}
			if got, want := run(false), run(true); !bytes.Equal(got, want) {
				t.Fatalf("pipelined client sent %d bytes before the failure, sequential %d, or different ones", len(got), len(want))
			}
		})
	}

	t.Run("store-fails-mid-stream", func(t *testing.T) {
		mb, err := shardstore.NewMemoryBacking(4, 0)
		if err != nil {
			t.Fatal(err)
		}
		fb := &failingBacking{Backing: mb}
		fb.remaining.Store(300) // dies during the second round
		store, err := shardstore.Open(fb)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServerWithStore(testConfig(4), store)
		if err != nil {
			t.Fatal(err)
		}
		c := startSession(t, srv) // net.Pipe: unbuffered, the drain protocol's hard case
		if _, err := c.NegotiateDedup(spec); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		_, err = c.BackupDedupBytes("doomed", data)
		var re *RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "disk full") {
			t.Fatalf("store failure = %v, want RemoteError carrying the fault", err)
		}
		quiesced(t, before, c.feed.segs)
		if _, err := c.BackupDedupBytes("again", data[:64<<10]); err == nil {
			t.Fatal("session still usable after the server failed the stream")
		}
	})

	t.Run("peer-closes-mid-round", func(t *testing.T) {
		c := scriptedServer(t, spec, func(br *bufio.Reader, conn net.Conn) {
			if _, err := expectFrame(br, MsgBeginDedup); err != nil {
				return
			}
			payload, err := expectFrame(br, MsgHasBatch)
			if err != nil {
				return
			}
			hs, err := decodeHasBatch(payload)
			if err != nil {
				return
			}
			all := make([]int, len(hs))
			for i := range all {
				all[i] = i
			}
			if err := writeFrame(conn, MsgNeedBatch, encodeNeedBatch(all)); err != nil {
				return
			}
			// Take one body of the round, then vanish.
			_, _ = expectFrame(br, MsgData)
		})
		before := runtime.NumGoroutine()
		_, err := c.BackupDedupBytes("cut-off", data)
		if !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, io.EOF) {
			t.Fatalf("peer closing mid-round = %v, want the transport's own error", err)
		}
		quiesced(t, before, c.feed.segs)
	})

	t.Run("remote-error-in-need-batch-slot", func(t *testing.T) {
		c := scriptedServer(t, spec, func(br *bufio.Reader, conn net.Conn) {
			if _, err := expectFrame(br, MsgBeginDedup); err != nil {
				return
			}
			if _, err := expectFrame(br, MsgHasBatch); err != nil {
				return
			}
			if err := writeFrame(conn, MsgNeedBatch, nil); err != nil {
				return
			}
			if _, err := expectFrame(br, MsgHasBatch); err != nil {
				return
			}
			_ = writeFrame(conn, MsgError, []byte("shard 3: disk full"))
		})
		before := runtime.NumGoroutine()
		_, err := c.BackupDedupBytes("refused", data)
		var re *RemoteError
		if !errors.As(err, &re) || re.Msg != "shard 3: disk full" || re.Name != "refused" {
			t.Fatalf("error frame in a NeedBatch slot = %v, want the server's RemoteError", err)
		}
		quiesced(t, before, c.feed.segs)
	})
}

// TestBackupDedupUnsupportedKeepsSession is the other half of the
// documented contract: ErrDedupUnsupported is returned before anything
// is sent, so the session goes on working.
func TestBackupDedupUnsupportedKeepsSession(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	spec := chunk.FastCDCSpec(4 << 10)
	if _, err := c.Negotiate(spec); err != nil {
		t.Fatal(err)
	}
	data := workload.Random(91, 1<<20)
	if _, err := c.BackupDedupBytes("x", data); !errors.Is(err, ErrDedupUnsupported) {
		t.Fatalf("BackupDedup on a v2 session = %v, want ErrDedupUnsupported", err)
	}
	if _, err := c.BackupBytes("x", data); err != nil {
		t.Fatalf("session unusable after ErrDedupUnsupported: %v", err)
	}
	if _, err := c.NegotiateDedup(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BackupDedupBytes("y", data); err != nil {
		t.Fatal(err)
	}
	if err := c.Verify("y", data); err != nil {
		t.Fatal(err)
	}
}
