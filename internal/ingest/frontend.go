package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// Backend is the storage half of the ingest service: whatever the wire
// front end stores streams into. The package's own Server is a Frontend
// over one shardstore.Store; internal/cluster's router is the same
// Frontend over a ring of nodes. sp is the operation's span (nil when
// untraced): back ends hang their stages under it.
type Backend interface {
	// VetSpec vets a chunking spec a client proposed, beyond the
	// protocol's own rules (frame limit, bounded dedup chunks). The
	// error's text is the rejection reason the client sees.
	VetSpec(spec chunk.Spec) error
	// NewStream opens a backup stream under name.
	NewStream(name string, sp *obs.Span) (Stream, error)
	// Restore hands the stream recorded under name to emit, chunk by
	// chunk in stream order (each chunk is only valid for the call), and
	// stops at emit's first error. An unknown name is an error matching
	// shardstore.ErrUnknownRecipe or ErrNotFound.
	Restore(name string, emit func(chunk []byte) error, sp *obs.Span) error
	// Delete expires the stream recorded under name, durably, before it
	// returns. Unknown names are reported as in Restore.
	Delete(name string, sp *obs.Span) (shardstore.DeleteStats, error)
}

// Stream is one in-flight backup as a back end sees it. The front end
// drives it from one goroutine in one of two mutually exclusive modes —
// Add for raw (server-chunked) streams, RoundHas/RoundBody for
// two-phase dedup streams — and ends it with a successful Commit or
// exactly one Abort.
type Stream interface {
	// Add stores the next chunks of a raw stream, in stream order:
	// bodies[i] hashes to hs[i]. Both slices and every body are only
	// valid for the call — the bodies are views into buffers the caller
	// reuses — so a back end that keeps one past the call copies it. A
	// remote back end's Add is a round with the bodies in hand: the
	// fingerprints go out, and the bodies the far end lacks follow before
	// Add returns.
	Add(hs []dedup.Hash, bodies [][]byte) error
	// RoundHas opens a dedup round over hs (the stream's to keep), the
	// next fingerprints in stream order: it takes a reference on every
	// chunk the back end already holds — inside the answer, so a chunk
	// the client is told to skip cannot be reclaimed under the stream —
	// and returns the ascending indices of the ones it lacks. One
	// RoundBody per returned index follows, in order, before the next
	// RoundHas or Commit.
	RoundHas(hs []dedup.Hash) (missing []int, err error)
	// RoundBody stores the next owed body, which is only valid for the
	// call and must hash to the fingerprint it answers.
	RoundBody(body []byte) error
	// Commit records the stream durably and returns its stats: a stream
	// the client saw acknowledged survives a restart.
	Commit() (*StreamStats, error)
	// Abort abandons the stream, giving back every reference it took.
	// Called once on each stream that does not commit, a failed Commit
	// included.
	Abort()
}

// Frontend serves the ingest wire protocol — negotiation, raw and
// two-phase dedup backups, restore, delete — against a Backend. There
// is one such state machine in the tree: how sessions are tracked and
// drained, how failures reach the client, what is counted, traced and
// logged is the same whatever stores the chunks. All exported methods
// are safe for concurrent use; each connection is one session and
// sessions run independently.
type Frontend struct {
	cfg Config
	eng chunk.Engine // cuts the raw streams of sessions that never negotiate
	be  Backend
	met *serverMetrics // nil when cfg.Obs is nil
	seq atomic.Uint64  // session id source

	// Sessions spawned by Serve, tracked for Shutdown.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewFrontend builds a front end over be. Of cfg it reads MaxProtocol,
// Shredder.HostWorkers, Obs, Tracer and Logger; eng cuts the raw
// streams of sessions that never negotiate an engine of their own.
func NewFrontend(cfg Config, eng chunk.Engine, be Backend) *Frontend {
	return &Frontend{
		cfg:   cfg,
		eng:   eng,
		be:    be,
		met:   newServerMetrics(cfg.Obs),
		conns: make(map[net.Conn]struct{}),
	}
}

// newEngine builds the engine spec describes, cutting large streams on
// cfg.Shredder.HostWorkers cores when that asks for more than one.
// Engines are safe for concurrent use, and the parallel chunker's
// metric families register idempotently per registry, so every
// session's engine aggregates into the same counters.
func newEngine(cfg Config, spec chunk.Spec) (chunk.Engine, error) {
	eng, err := chunk.New(spec)
	if err != nil {
		return nil, err
	}
	if w := cfg.Shredder.HostWorkers; w > 1 || w < 0 {
		p := chunk.NewParallel(eng, w)
		p.Instrument(cfg.Obs)
		return p, nil
	}
	return eng, nil
}

// Serve accepts connections until the listener closes, running each
// session on its own goroutine. It returns the accept error (which is
// net.ErrClosed after a clean shutdown).
func (f *Frontend) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		f.track(conn)
		go func() {
			defer f.untrack(conn)
			_ = f.ServeConn(conn)
		}()
	}
}

func (f *Frontend) track(conn net.Conn) {
	f.wg.Add(1)
	f.connMu.Lock()
	f.conns[conn] = struct{}{}
	f.connMu.Unlock()
}

func (f *Frontend) untrack(conn net.Conn) {
	_ = conn.Close()
	f.connMu.Lock()
	delete(f.conns, conn)
	f.connMu.Unlock()
	f.wg.Done()
}

// Shutdown drains the sessions Serve spawned: it waits up to grace for
// them to finish on their own, force-closes any stragglers, and waits
// for the rest. The caller closes the listener first (which makes
// Serve return) and whatever the back end owns afterwards. grace <= 0
// force-closes immediately.
func (f *Frontend) Shutdown(grace time.Duration) {
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		select {
		case <-done:
			return
		case <-t.C:
		}
	}
	f.connMu.Lock()
	for c := range f.conns {
		_ = c.Close()
	}
	f.connMu.Unlock()
	<-done
}

// ServeConn runs one client session to completion: any number of
// backup, restore and delete operations, until the peer disconnects.
// Raw streams are cut with the default engine until a Hello negotiates
// a different one. A session that negotiates version ≥ 3 may also run
// two-phase dedup backups, which the front end never chunks (the
// client did).
func (f *Frontend) ServeConn(conn net.Conn) error {
	f.met.sessionStart()
	var sl *slog.Logger
	if f.cfg.Logger != nil {
		sl = f.cfg.Logger.With("session", f.seq.Add(1))
		remote := "?"
		if addr := conn.RemoteAddr(); addr != nil {
			remote = addr.String()
		}
		sl.Debug("session accepted", "remote", remote)
	}
	ver, err := f.serveSession(conn, sl)
	f.met.sessionEnd(ver, err)
	if sl != nil {
		proto := int(ver)
		if proto == 0 {
			proto = 1 // never sent a Hello: the legacy raw protocol
		}
		if err != nil {
			sl.Warn("session failed", "protocol", proto, "kind", errorKind(err), "err", err)
		} else {
			sl.Debug("session closed", "protocol", proto)
		}
	}
	return err
}

// session is one connection's protocol state.
type session struct {
	f   *Frontend
	br  *bufio.Reader
	bw  *bufio.Writer
	sl  *slog.Logger // nil ok
	eng chunk.Engine // cuts this session's raw streams
	ver byte         // negotiated protocol version; 0 = legacy raw session
	// feed runs the session's raw streams, keeping their segment buffers
	// from one stream to the next.
	feed Feeder
}

// send writes one frame and flushes it.
func (s *session) send(typ byte, payload []byte) error {
	if err := writeFrame(s.bw, typ, payload); err != nil {
		return err
	}
	return s.bw.Flush()
}

// abort ends the session over a failure nothing can be drained around:
// a best-effort Error frame, then the error itself.
func (s *session) abort(err error) error {
	_ = s.send(MsgError, []byte(err.Error()))
	return err
}

// serveSession is ServeConn's frame loop, returning the negotiated
// protocol version alongside the session's fate.
func (f *Frontend) serveSession(conn net.Conn, sl *slog.Logger) (byte, error) {
	s := &session{
		f:   f,
		br:  bufio.NewReaderSize(conn, 256<<10),
		bw:  bufio.NewWriterSize(conn, 256<<10),
		sl:  sl,
		eng: f.eng,
	}
	var buf []byte
	for {
		typ, payload, err := readFrame(s.br, buf)
		if err == io.EOF {
			return s.ver, nil
		}
		if err != nil {
			return s.ver, err
		}
		f.met.frame(typ)
		buf = payload[:cap(payload)]
		if (typ == MsgBeginDedup || typ == MsgDelete) && s.ver < 3 {
			return s.ver, s.abort(&UnexpectedFrameError{Type: typ, Context: "session below protocol version 3"})
		}
		switch typ {
		case MsgHello:
			err = s.hello(payload)
		case MsgBegin:
			sp := f.span("backup", obs.SpanContext{}, obs.Str("recipe", string(payload)))
			err = s.backup(string(payload), sp)
			sp.End()
		case MsgBeginDedup:
			name, ctx, derr := decodeBeginDedup(s.ver, payload)
			if derr != nil {
				return s.ver, s.abort(derr)
			}
			sp := f.span("backup_dedup", ctx, obs.Str("recipe", name))
			err = s.backupDedup(name, sp)
			sp.End()
		case MsgDelete:
			sp := f.span("delete", obs.SpanContext{}, obs.Str("recipe", string(payload)))
			err = s.delete(string(payload), sp)
			sp.End()
		case MsgRestore:
			sp := f.span("restore", obs.SpanContext{}, obs.Str("recipe", string(payload)))
			err = s.restore(string(payload), sp)
			sp.End()
		default:
			err = s.abort(&UnexpectedFrameError{Type: typ, Context: "session"})
		}
		if err != nil {
			return s.ver, err
		}
	}
}

// span starts one per-operation root span: parented under the span the
// client announced on the wire when it sent a trace context, a fresh
// local root otherwise. Returns nil (a universal no-op) when the
// front end has no tracer.
func (f *Frontend) span(name string, ctx obs.SpanContext, attrs ...obs.Attr) *obs.Span {
	if f.cfg.Tracer == nil {
		return nil
	}
	return f.cfg.Tracer.StartRemote(name, ctx, attrs...)
}

// hello answers a negotiation. A rejected one is fatal to the session:
// the client's next frames would be cut with an engine it did not
// agree to. The bare reason goes out — the client wraps it in its own
// NegotiationError.
func (s *session) hello(payload []byte) error {
	eng, spec, ver, ctx, err := s.f.negotiate(payload)
	if err != nil {
		_ = s.send(MsgError, []byte(err.Error()))
		return &NegotiationError{Reason: err.Error()}
	}
	s.eng, s.ver = eng, ver
	sp := s.f.span("negotiate", ctx, obs.Int("protocol", int64(ver)))
	defer sp.End()
	if s.sl != nil {
		s.sl.Debug("session negotiated", "protocol", ver,
			"algo", spec.Algo, "min", spec.MinSize, "max", spec.MaxSize)
	}
	return s.send(MsgAccept, encodeHello(ver, spec))
}

// negotiate validates a Hello payload and builds the session engine it
// describes, returning the engine, the accepted spec, the agreed
// protocol version and the client's trace context (zero below v4). An
// error's text is the reason the client will see.
func (f *Frontend) negotiate(payload []byte) (chunk.Engine, chunk.Spec, byte, obs.SpanContext, error) {
	version, spec, ctx, err := decodeHello(payload)
	if err != nil {
		return nil, spec, 0, ctx, err
	}
	newest := f.cfg.MaxProtocol
	if newest == 0 {
		newest = ProtocolVersion
	}
	switch {
	case version < MinProtocolVersion || version > newest:
		err = fmt.Errorf("unsupported protocol version %d (server speaks %d)", version, newest)
	case spec.MaxSize > MaxFrame:
		err = fmt.Errorf("max chunk size %d exceeds the %d-byte frame limit", spec.MaxSize, MaxFrame)
	case version >= 3 && spec.MaxSize <= 0:
		// A dedup client uploads each chunk body as one frame; an
		// unbounded engine could cut a chunk no frame can carry.
		err = errors.New("dedup sessions need a bounded max chunk size within the frame limit")
	default:
		err = f.be.VetSpec(spec)
	}
	if err != nil {
		return nil, spec, 0, ctx, err
	}
	eng, err := newEngine(f.cfg, spec)
	return eng, spec, version, ctx, err
}

// rawStream is one raw backup stream as an io.Reader: the payloads of
// the session's Data frames up to the End frame, read from the
// connection's buffer straight into the caller's — no frame is staged.
type rawStream struct {
	r    *bufio.Reader
	met  *serverMetrics // nil ok
	left int            // payload bytes of the open Data frame not yet read
	size int            // that frame's whole payload, for the truncation error
	done bool           // the End frame has been read
	// broken is set when the stream itself violated the protocol
	// (truncation, bad frame): the connection is desynchronized and
	// must not be drained further.
	broken bool
}

// Read fills p from the stream's Data payloads and returns io.EOF once
// the End frame has been read. Every other error is typed and final.
func (rs *rawStream) Read(p []byte) (int, error) {
	for rs.left == 0 {
		if rs.done {
			return 0, io.EOF
		}
		if err := rs.nextFrame(); err != nil {
			rs.broken = true
			return 0, err
		}
	}
	if len(p) > rs.left {
		p = p[:rs.left]
	}
	n, err := rs.r.Read(p)
	rs.left -= n
	if err != nil {
		rs.broken = true
		return n, cutPayload(MsgData, rs.size, err)
	}
	return n, nil
}

// nextFrame reads the stream's next frame header: a Data frame opens its
// payload for Read, the End frame ends the stream.
func (rs *rawStream) nextFrame() error {
	typ, n, err := readHeader(rs.r)
	if err == io.EOF {
		// The peer closed on a frame boundary but never sent End: the
		// stream is truncated, not complete. A bare io.EOF here would
		// pass the partial stream off as a successful backup.
		return &TruncatedError{Context: "backup stream before End frame", Cause: io.ErrUnexpectedEOF}
	}
	if err != nil {
		return err
	}
	if typ == MsgData {
		rs.met.frame(typ)
		rs.left, rs.size = n, n
		return nil
	}
	// Any other frame is read whole before it is judged, so a cut-off
	// one is reported as that.
	if _, err := rs.r.Discard(n); err != nil {
		return cutPayload(typ, n, err)
	}
	rs.met.frame(typ)
	if typ != MsgEnd {
		return &UnexpectedFrameError{Type: typ, Context: "backup stream"}
	}
	rs.done = true
	return nil
}

// drain consumes the remainder of a stream after a server-side error so
// the client can finish writing and read our Error frame (required for
// unbuffered transports like net.Pipe).
func (rs *rawStream) drain() {
	_, _ = io.Copy(io.Discard, rs)
}

// backup runs one raw stream: the session's engine cuts it, every chunk
// goes to the back end with its fingerprint, and the stats go back once
// the stream is committed.
func (s *session) backup(name string, sp *obs.Span) error {
	rs := &rawStream{r: s.br, met: s.f.met}
	st, err := s.f.be.NewStream(name, sp)
	var stats *StreamStats
	if err == nil {
		var ft FeedTimes
		ft, err = s.feed.Feed(st, s.eng, rs)
		s.f.met.stages(ft)
		if sp != nil {
			sp.Set(obs.Float("scan_s", ft.Scan.Seconds()),
				obs.Float("hash_s", ft.Hash.Seconds()),
				obs.Float("producer_stall_s", ft.Stall.Seconds()),
				obs.Float("store_s", ft.Store.Seconds()),
				obs.Float("store_idle_s", ft.Idle.Seconds()))
		}
		if err == nil {
			stats, err = st.Commit()
		}
		if err != nil {
			st.Abort()
		}
	}
	if err != nil {
		// Best-effort: let the client finish writing (net.Pipe has no
		// buffer) and hand it the error before the session dies. When
		// the stream itself broke protocol the connection is
		// desynchronized — draining would block on a peer that may
		// never send another frame, so abort immediately instead.
		if !rs.broken {
			rs.drain()
		}
		return s.abort(err)
	}
	return s.ack(name, stats, sp)
}

// Adder takes a stream's chunks in stream order, a batch at a time:
// bodies[i] hashes to hs[i], and both slices and every body are only
// valid for the call. A back end's Stream is one; the dedup client's
// rounds are another.
type Adder interface {
	Add(hs []dedup.Hash, bodies [][]byte) error
}

// Feeder runs streams through the chunking pipeline (see chunkPipeline),
// one at a time, handing every batch to an Adder with its bodies as views
// into the pipeline's pooled segments. It is the one place a stream is
// cut: the wire front end feeds its sessions' raw backups through it, the
// cluster its locally chunked ones, and the dedup client its rounds. The
// zero value is ready to use. A Feeder keeps at most pipelineDepth+2
// segment buffers, allocated as streams come to need them: one, for
// streams that each fit a segment.
type Feeder struct {
	segs *segmentPool
}

// FeedTimes is where one Feed's time went: the pipeline's stages, and
// the feeding goroutine's own split between the Adder and waiting for
// the pipeline.
type FeedTimes struct {
	Scan  time.Duration // reading r and cutting it
	Hash  time.Duration // fingerprinting, summed over the workers
	Stall time.Duration // the scanning goroutine waiting for a free segment or queue slot
	Store time.Duration // inside Add
	Idle  time.Duration // waiting for the next batch
}

// Feed cuts r with eng and hands every batch to a.Add, in stream order.
// An error of r's other than io.EOF, or Add's first, ends the feed and is
// returned as it is; Feed returns only after its goroutines have exited,
// which includes waiting out a Read on r that is in flight. A stream that
// ends inside its first segment starts no goroutine at all.
func (f *Feeder) Feed(a Adder, eng chunk.Engine, r io.Reader) (FeedTimes, error) {
	if f.segs == nil {
		f.segs = newSegmentPool(pipelineDepth + 2)
	}
	var ft FeedTimes
	t0 := time.Now()
	p := startChunkPipeline(r, eng, f.segs)
	var err error
	for {
		var b *chunkBatch
		if b, err = p.next(); err != nil {
			break
		}
		t1 := time.Now()
		ft.Idle += t1.Sub(t0)
		err = a.Add(b.hashes, b.bodies)
		b.release()
		t0 = time.Now()
		ft.Store += t0.Sub(t1)
		if err != nil {
			break
		}
	}
	pt := p.stop()
	ft.Scan, ft.Hash, ft.Stall = pt.scan, pt.hash, pt.stall
	if err == io.EOF {
		err = nil
	}
	return ft, err
}

// backupDedup runs one two-phase content-addressed backup: the client
// sends fingerprint batches, each answered with the indices the back
// end is missing, then uploads exactly those bodies; Commit records the
// stream and is acked with its stats.
//
// Failure delivery mirrors the raw path's drain: an application-level
// failure (the back end refusing the name, a store or node error, a
// rejected body) cannot just fire an Error frame — on an unbuffered
// transport the client may be blocked writing bodies while we block
// writing the error. Instead the loop keeps serving the protocol in
// drain mode (remaining bodies of the broken round are read and
// discarded, later HasBatches draw an empty NeedBatch so the client
// uploads nothing more, and the back end is not touched again) until
// the Commit turn, whose reply slot carries the error. Protocol
// violations abort immediately: the connection is desynchronized and
// draining it could block forever.
func (s *session) backupDedup(name string, sp *obs.Span) error {
	f := s.f
	st, appErr := f.be.NewStream(name, sp) // appErr: first application failure; drain mode afterwards
	committed := false
	defer func() {
		if st != nil && !committed {
			st.Abort()
		}
	}()
	var buf []byte
	// read returns the stream's next frame; what names the point a
	// vanished peer cut it off at.
	read := func(what string) (byte, []byte, error) {
		typ, payload, err := readFrame(s.br, buf)
		if err == io.EOF {
			err = &TruncatedError{Context: what, Cause: io.ErrUnexpectedEOF}
		}
		if err != nil {
			return 0, nil, err
		}
		f.met.frame(typ)
		buf = payload[:cap(payload)]
		return typ, payload, nil
	}
	for {
		typ, payload, err := read("dedup backup stream before Commit frame")
		if err != nil {
			return err
		}
		switch typ {
		case MsgHasBatch:
			hs, err := decodeHasBatch(payload)
			if err != nil {
				return s.abort(err)
			}
			var missing []int
			if appErr == nil {
				if missing, appErr = st.RoundHas(hs); appErr != nil {
					missing = nil // draining: the client keeps its bodies
				}
			}
			if err := s.send(MsgNeedBatch, encodeNeedBatch(missing)); err != nil {
				return err
			}
			var rb *obs.Span
			if len(missing) > 0 {
				rb = sp.Child("recv_bodies", obs.Int("chunks", int64(len(missing))))
			}
			var rbBytes int64
			for range missing {
				btyp, body, err := read("dedup backup body upload")
				if err != nil {
					rb.End()
					return err
				}
				if btyp != MsgData {
					rb.End()
					return s.abort(&UnexpectedFrameError{Type: btyp, Context: "dedup body upload"})
				}
				rbBytes += int64(len(body))
				if appErr == nil {
					appErr = st.RoundBody(body)
				}
			}
			rb.Set(obs.Int("bytes", rbBytes))
			rb.End()
		case MsgCommit:
			var stats *StreamStats
			if appErr == nil {
				stats, appErr = st.Commit()
			}
			if appErr != nil {
				if err := s.send(MsgError, []byte(appErr.Error())); err != nil {
					return err
				}
				return appErr
			}
			committed = true
			return s.ack(name, stats, sp)
		default:
			return s.abort(&UnexpectedFrameError{Type: typ, Context: "dedup backup stream"})
		}
	}
}

// ack accounts one committed stream and sends its stats. On the raw
// path the Wire block reaches v3 clients only; older clients
// reconstruct the same numbers locally.
func (s *session) ack(name string, st *StreamStats, sp *obs.Span) error {
	sp.Set(obs.Int("bytes", st.Bytes), obs.Int("chunks", st.Chunks),
		obs.Int("dup_chunks", st.DupChunks),
		obs.Int("wire_bytes", st.Wire.WireBytes),
		obs.Int("chunks_skipped", st.Wire.ChunksSkipped))
	s.f.met.streamCommitted(*st)
	if s.sl != nil {
		s.sl.Info("stream committed", "recipe", name, "bytes", st.Bytes,
			"chunks", st.Chunks, "dup_chunks", st.DupChunks,
			"wire_bytes", st.Wire.WireBytes,
			"chunks_skipped", st.Wire.ChunksSkipped, "ratio", st.DedupRatio())
	}
	return s.send(MsgStats, st.encode(s.ver))
}

// replyFailed answers a restore or delete the back end failed with an
// Error frame. This is the one place an unknown name gets its canonical
// text — the store's own, whichever back end reported it — which
// clients type as a *NotFoundError.
func (s *session) replyFailed(name string, err error) error {
	msg := err.Error()
	if unknownName(err) {
		msg = fmt.Sprintf("%v: %q", shardstore.ErrUnknownRecipe, name)
	}
	return s.send(MsgError, []byte(msg))
}

func unknownName(err error) bool {
	return errors.Is(err, shardstore.ErrUnknownRecipe) || errors.Is(err, ErrNotFound)
}

// delete expires one named stream. An unknown name is an application
// error the session survives (like an unknown restore); any other
// back-end failure kills the session once the client has been told.
func (s *session) delete(name string, sp *obs.Span) error {
	ds, err := s.f.be.Delete(name, sp)
	if err != nil {
		if werr := s.replyFailed(name, err); werr != nil {
			return werr
		}
		if unknownName(err) {
			return nil
		}
		return err
	}
	sp.Set(obs.Int("released", ds.ChunksReleased),
		obs.Int("freed_chunks", ds.ChunksFreed), obs.Int("freed_bytes", ds.BytesFreed))
	if s.sl != nil {
		s.sl.Info("recipe deleted", "recipe", name, "released", ds.ChunksReleased,
			"freed_chunks", ds.ChunksFreed, "freed_bytes", ds.BytesFreed)
	}
	return s.send(MsgDeleteOK, encodeDeleteResult(ds))
}

// restore streams a recorded stream back as Data frames, one per
// chunk. A back-end failure — an unknown name, a chunk gone missing
// partway — takes the Error frame's place in the reply and the session
// survives; only a failing connection ends it.
func (s *session) restore(name string, sp *obs.Span) error {
	if s.sl != nil {
		s.sl.Debug("stream restored", "recipe", name)
	}
	var chunks, sent int64
	var werr error
	err := s.f.be.Restore(name, func(data []byte) error {
		chunks++
		// Frame boundaries need not align to chunks: split oversized
		// chunks (possible when an engine runs without a MaxSize) so a
		// recorded stream can always be restored.
		for len(data) > 0 && werr == nil {
			n := min(len(data), DefaultFrameSize)
			werr = writeFrame(s.bw, MsgData, data[:n])
			sent += int64(n)
			data = data[n:]
		}
		return werr
	}, sp)
	if werr != nil {
		return werr
	}
	if err != nil {
		return s.replyFailed(name, err)
	}
	sp.Set(obs.Int("chunks", chunks), obs.Int("bytes", sent))
	return s.send(MsgEnd, nil)
}
