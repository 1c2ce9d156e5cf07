package ingest

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"shredder/internal/chunk"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// TestRawFeedMatchesEngineSplit pins the raw path's frame-to-stream
// feed and the boundary format it persists: however the client frames
// a stream, and whether or not the session negotiated, the committed
// recipe is SHA-256 over the session engine's own Split of the same
// bytes, chunk by chunk. The no-Hello rows are the legacy boundary
// format — stores written by earlier builds hold recipes cut this way,
// so it must not drift. The stream lengths around segmentSize cover the
// pipeline's own seams: a stream that ends inside its first segment is
// cut inline, one byte more starts the goroutines, and from the second
// segment on a chunk that straddles a segment boundary is carried over
// (every chunk of the 1 MiB-average engine that crosses one is).
func TestRawFeedMatchesEngineSplit(t *testing.T) {
	image := workload.Random(71, 3<<20)
	long := workload.Random(72, 2*segmentSize+777<<10)
	defaultSpec := DefaultConfig().Shredder.Chunking
	fastcdc := chunk.FastCDCSpec(4 << 10)
	bigChunks := chunk.FastCDCSpec(1 << 20) // 256 KiB .. 4 MiB
	cases := []struct {
		name      string
		negotiate *chunk.Spec // nil: the session never sends a Hello
		workers   int
	}{
		{"no-hello", nil, 0},
		{"negotiated-rabin", &defaultSpec, 0},
		{"negotiated-fastcdc", &fastcdc, 0},
		{"no-hello-2-workers", nil, 2},
		{"negotiated-fastcdc-1m-2-workers", &bigChunks, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(4)
			cfg.Shredder.HostWorkers = tc.workers
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := startSession(t, srv)
			spec := defaultSpec
			if tc.negotiate != nil {
				spec = *tc.negotiate
				if _, err := c.Negotiate(spec); err != nil {
					t.Fatal(err)
				}
			}
			eng, err := chunk.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			streams := []struct {
				frameSize int
				data      []byte
			}{
				// One frame per byte is slow over net.Pipe: a prefix only.
				{1, image[:64<<10]},
				{4093, image},
				{64 << 10, image},
				{1 << 20, image},
				{DefaultFrameSize, nil},
				{DefaultFrameSize, long[:segmentSize-1]},
				{DefaultFrameSize, long[:segmentSize]},
				{DefaultFrameSize, long[:segmentSize+1]},
				{333 << 10, long},
			}
			for _, s := range streams {
				name := fmt.Sprintf("frames-%d-bytes-%d", s.frameSize, len(s.data))
				c.frameSize = s.frameSize
				st, err := c.BackupBytes(name, s.data)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var want shardstore.Recipe
				for _, ck := range eng.Split(s.data) {
					want = append(want, sha256.Sum256(s.data[ck.Offset:ck.End()]))
				}
				got, ok := srv.Recipe(name)
				if !ok {
					t.Fatalf("%s: no recipe committed", name)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: recipe has %d chunks, engine Split cuts %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: recipe entry %d differs from the engine's chunk %d", name, i, i)
					}
				}
				if st.Bytes != int64(len(s.data)) || st.Chunks != int64(len(want)) {
					t.Fatalf("%s: stats report %d bytes in %d chunks, want %d in %d",
						name, st.Bytes, st.Chunks, len(s.data), len(want))
				}
			}
		})
	}
}

// frames renders a frame sequence as wire bytes; a negative size
// announces -size payload bytes and sends none.
func frames(fs ...struct {
	typ      byte
	payload  []byte
	announce int
}) []byte {
	var b bytes.Buffer
	for _, f := range fs {
		n := len(f.payload)
		if f.announce != 0 {
			n = f.announce
		}
		var hdr [headerSize]byte
		hdr[0] = f.typ
		binary.BigEndian.PutUint32(hdr[1:], uint32(n))
		b.Write(hdr[:])
		b.Write(f.payload)
	}
	return b.Bytes()
}

// readRawReference is the raw stream read the way builds before the
// pipeline read it — one whole frame at a time through readFrame — and
// the oracle for what rawStream.Read must deliver and how it must fail.
func readRawReference(wire []byte) (data []byte, err error) {
	r := bufio.NewReader(bytes.NewReader(wire))
	var buf []byte
	for {
		typ, payload, err := readFrame(r, buf)
		if err == io.EOF {
			return data, &TruncatedError{Context: "backup stream before End frame", Cause: io.ErrUnexpectedEOF}
		}
		if err != nil {
			return data, err
		}
		buf = payload[:cap(payload)]
		switch typ {
		case MsgData:
			data = append(data, payload...)
		case MsgEnd:
			return data, nil
		default:
			return data, &UnexpectedFrameError{Type: typ, Context: "backup stream"}
		}
	}
}

// TestRawStreamFraming runs rawStream.Read over well- and ill-framed
// streams, at read sizes from one byte up and connection buffers smaller
// and larger than a frame, and holds it to the frame-at-a-time reader it
// replaced: the same bytes, then io.EOF or the same typed error with the
// same text, and broken set exactly when the stream did not end cleanly.
func TestRawStreamFraming(t *testing.T) {
	type frame = struct {
		typ      byte
		payload  []byte
		announce int
	}
	body := workload.Random(9, 70<<10)
	var bytewise []frame
	for _, c := range body[:300] {
		bytewise = append(bytewise, frame{typ: MsgData, payload: []byte{c}}, frame{typ: MsgData})
	}
	bytewise = append(bytewise, frame{typ: MsgEnd})
	cases := []struct {
		name string
		wire []byte
	}{
		{"one-byte and empty data frames", frames(bytewise...)},
		{"mixed sizes", frames(frame{typ: MsgData, payload: body}, frame{typ: MsgData},
			frame{typ: MsgData, payload: body[:1]}, frame{typ: MsgData, payload: body[:4097]}, frame{typ: MsgEnd})},
		{"empty stream", frames(frame{typ: MsgEnd})},
		{"end frame with a payload", frames(frame{typ: MsgData, payload: body[:10]}, frame{typ: MsgEnd, payload: []byte("bye")})},
		{"payload cut mid-frame", frames(frame{typ: MsgData, payload: body[:100]}, frame{typ: MsgData, payload: body[:5000], announce: 6000})},
		{"payload missing entirely", frames(frame{typ: MsgData, payload: body[:100]}, frame{typ: MsgData, announce: 1 << 20})},
		{"header cut", frames(frame{typ: MsgData, payload: body[:100]}, frame{typ: MsgEnd})[:headerSize+100+3]},
		{"peer gone before End", frames(frame{typ: MsgData, payload: body[:100]}, frame{typ: MsgData, payload: body})},
		{"peer gone at once", nil},
		{"oversized header", frames(frame{typ: MsgData, payload: body[:100]}, frame{typ: MsgData, announce: MaxFrame + 1})},
		{"stray frame mid-stream", frames(frame{typ: MsgData, payload: body[:100]}, frame{typ: MsgCommit}, frame{typ: MsgEnd})},
		{"stray frame, its payload cut", frames(frame{typ: MsgData, payload: body[:100]}, frame{typ: MsgHasBatch, payload: body[:10], announce: 64})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantErr := readRawReference(tc.wire)
			for _, connBuf := range []int{16, 4096, 256 << 10} {
				for _, readSize := range []int{1, 7, 4096, 1 << 20} {
					rs := &rawStream{r: bufio.NewReaderSize(bytes.NewReader(tc.wire), connBuf)}
					var got []byte
					p := make([]byte, readSize)
					var err error
					for err == nil {
						var n int
						n, err = rs.Read(p)
						got = append(got, p[:n]...)
					}
					// Only a frame cut mid-payload may deliver more: the part
					// of it that arrived, ahead of the error that fails the
					// stream.
					if !bytes.HasPrefix(got, want) || (len(got) != len(want) && tc.name != "payload cut mid-frame") {
						t.Fatalf("buffer %d, reads of %d: %d bytes delivered, the frame reader delivers %d", connBuf, readSize, len(got), len(want))
					}
					if wantErr == nil {
						if err != io.EOF || rs.broken || !rs.done {
							t.Fatalf("buffer %d, reads of %d: clean stream ended with %v (broken %v, done %v)", connBuf, readSize, err, rs.broken, rs.done)
						}
						continue
					}
					if fmt.Sprintf("%T", err) != fmt.Sprintf("%T", wantErr) || err.Error() != wantErr.Error() {
						t.Fatalf("buffer %d, reads of %d: error %T %q, the frame reader returns %T %q", connBuf, readSize, err, err, wantErr, wantErr)
					}
					if !rs.broken {
						t.Fatalf("buffer %d, reads of %d: stream not marked broken after %v", connBuf, readSize, err)
					}
				}
			}
		})
	}
}

// probeConn records the most goroutines alive at any of its Reads while
// armed.
type probeConn struct {
	net.Conn
	armed atomic.Bool
	peak  atomic.Int64
}

func (c *probeConn) Read(p []byte) (int, error) {
	if n := int64(runtime.NumGoroutine()); c.armed.Load() && n > c.peak.Load() {
		c.peak.Store(n) // one session reads the conn, so nothing races the update
	}
	return c.Conn.Read(p)
}

// probeReader is the same probe on a stream's source.
type probeReader struct {
	io.Reader
	peak int
}

func (r *probeReader) Read(p []byte) (int, error) {
	r.peak = max(r.peak, runtime.NumGoroutine())
	return r.Reader.Read(p)
}

// TestSmallStreamStartsNoGoroutine: a 64 KiB stream is cut, hashed and
// stored on the goroutines that were already there — the session's on
// the server for Backup, the caller's on the client for BackupDedup.
// The probes count goroutines from inside the reads that feed the
// pipeline, which is where its producer would be running; the stream of
// more than a segment at the end shows they see it when it is.
func TestSmallStreamStartsNoGoroutine(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	cend, send := net.Pipe()
	probe := &probeConn{Conn: send}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer send.Close()
		_ = srv.ServeConn(probe)
	}()
	c := NewSession(cend)
	if _, err := c.NegotiateDedup(chunk.FastCDCSpec(4 << 10)); err != nil {
		t.Fatal(err)
	}
	small := workload.Random(3, 64<<10)
	// The first streams make both ends build what they keep.
	if _, err := c.BackupBytes("warm-raw", small); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BackupDedupBytes("warm-dedup", small); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	run := func(op func() error) int {
		t.Helper()
		probe.peak.Store(0)
		probe.armed.Store(true)
		if err := op(); err != nil {
			t.Fatal(err)
		}
		probe.armed.Store(false)
		return int(probe.peak.Load())
	}

	peak := run(func() error {
		_, err := c.BackupBytes("raw", workload.Random(4, 64<<10))
		return err
	})
	if peak > before {
		t.Errorf("Backup of 64 KiB: %d goroutines while the server read the stream, %d before it", peak, before)
	}
	src := &probeReader{Reader: bytes.NewReader(workload.Random(5, 64<<10))}
	peak = run(func() error {
		_, err := c.BackupDedup("dedup", src)
		return err
	})
	if peak > before || src.peak > before {
		t.Errorf("BackupDedup of 64 KiB: %d goroutines at the source's reads and %d at the server's, %d before it", src.peak, peak, before)
	}
	peak = run(func() error {
		_, err := c.BackupBytes("long", workload.Random(6, segmentSize+1))
		return err
	})
	if peak <= before {
		t.Errorf("Backup of more than a segment: the probe saw no pipeline goroutine (%d, %d before)", peak, before)
	}
	c.Close()
	<-done
}

// TestSmallStreamAllocatesNoStreamBuffer: with the Feeder's pool warm,
// what a 64 KiB raw stream allocates is its batch and the Scanner's
// cursor — the segment is the only copy of the stream's bytes, so there
// is no stream-sized buffer beside it (an engine stream fed the segment
// would grow one, 64 KiB or more, for every stream).
func TestSmallStreamAllocatesNoStreamBuffer(t *testing.T) {
	data := workload.Random(7, 64<<10)
	for _, spec := range []chunk.Spec{chunk.FastCDCSpec(4 << 10), DefaultConfig().Shredder.Chunking} {
		eng, err := chunk.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		var f Feeder
		r := bytes.NewReader(data)
		feed := func() {
			r.Reset(data)
			be := &fakeBackend{}
			if _, err := f.Feed(be, eng, r); err != nil || be.added == 0 {
				t.Fatalf("%s: Feed added %d chunks: %v", spec.Algo, be.added, err)
			}
		}
		feed() // the first stream allocates the segment the pool then keeps
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				feed()
			}
		})
		if got := res.AllocedBytesPerOp(); got >= 16<<10 {
			t.Errorf("%s: a 64 KiB stream allocates %d bytes, want under 16 KiB", spec.Algo, got)
		} else {
			t.Logf("%s: %d bytes in %d allocations per 64 KiB stream", spec.Algo, got, res.AllocsPerOp())
		}
	}
}

// TestDefaultChunkingIsThePinnedSpec ties the service default to the
// literal internal/chunk's golden vectors pin as "rabin-service": a
// session that never negotiates is cut with exactly that spec, so a
// change to either side has to be made on both, knowingly.
func TestDefaultChunkingIsThePinnedSpec(t *testing.T) {
	want := chunk.Spec{
		Algo:       chunk.AlgoRabin,
		Window:     48,
		Polynomial: 0x3DA3358B4DC173,
		MaskBits:   12,
		Marker:     1<<12 - 1,
		MinSize:    2 << 10,
		MaxSize:    32 << 10,
	}
	if got := DefaultConfig().Shredder.Chunking; got != want {
		t.Fatalf("DefaultConfig() chunks with %+v, the golden vectors pin %+v", got, want)
	}
}

// TestBackupSourceErrorIsNotAcked: a source that fails fails the raw
// backup, even when its error is io.ErrUnexpectedEOF — what a cut-off
// gzip or tar reader or HTTP body reports. The client sends no End frame,
// so nothing is committed under the name, and once the session closes the
// server gives back every reference the partial stream took.
func TestBackupSourceErrorIsNotAcked(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	spec := chunk.FastCDCSpec(4 << 10)
	base := workload.Random(81, 256<<10)
	c := startSession(t, srv)
	if _, err := c.Negotiate(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BackupBytes("base", base); err != nil {
		t.Fatal(err)
	}
	// The cut-off stream repeats the base's first 64 KiB and goes on with
	// fresh bytes: it pins chunks the store holds and inserts new ones.
	cut := append(append([]byte(nil), base[:64<<10]...), workload.Random(82, 36<<10)...)
	eng, err := chunk.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Store().Stats()
	refs := make(map[shardstore.Hash]int64)
	for _, data := range [][]byte{base, cut} {
		for _, ck := range eng.Split(data) {
			h := sha256.Sum256(data[ck.Offset:ck.End()])
			refs[h] = srv.Store().Refcount(h)
		}
	}

	cend, send := net.Pipe()
	served := make(chan error, 1)
	go func() {
		defer send.Close()
		served <- srv.ServeConn(send)
	}()
	c2 := NewSession(cend)
	if _, err := c2.Negotiate(spec); err != nil {
		t.Fatal(err)
	}
	src := io.MultiReader(bytes.NewReader(cut), iotest.ErrReader(io.ErrUnexpectedEOF))
	if st, err := c2.Backup("cut", src); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Backup of a failing source = %+v, %v; want the source's error", st, err)
	}
	c2.Close()
	if err := <-served; err == nil {
		t.Fatal("server session ended cleanly on a stream with no End frame")
	}
	for _, name := range srv.Store().RecipeNames() {
		if name == "cut" {
			t.Fatal("the failed stream was committed")
		}
	}
	for h, want := range refs {
		if got := srv.Store().Refcount(h); got != want {
			t.Fatalf("chunk %x: refcount %d after the failed stream, want %d", h[:8], got, want)
		}
	}
	if after := srv.Store().Stats(); after != before {
		t.Fatalf("store stats moved: %+v before the failed stream, %+v after", before, after)
	}
}
