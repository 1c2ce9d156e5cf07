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
	"shredder/internal/core"
	"shredder/internal/dedup"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// Config parameterizes the ingest server.
type Config struct {
	// Shards and ContainerSize configure the shared shardstore
	// (0 means the shardstore defaults).
	Shards        int
	ContainerSize int64
	// Shredder configures how raw streams are cut. The server reads two
	// fields: Chunking (the engine sessions that never negotiate cut
	// with) and HostWorkers (> 1 or negative wraps every session engine
	// in chunk.Parallel). The simulated-GPU pipeline the rest of
	// core.Config describes is not on the serving path; the field keeps
	// that type solely because the bench/ module reads it.
	Shredder core.Config
	// BatchSize is how many chunks the server accumulates before one
	// batched has/put round against the store (0 means 64). Larger
	// batches amortize stripe locking; smaller ones bound latency.
	BatchSize int
	// MaxProtocol caps the protocol version the server will accept in
	// a Hello (0 means ProtocolVersion). Setting 2 turns off two-phase
	// dedup ingest and makes the server behave exactly like a
	// version-2 build — the shredderd -dedup-wire=false switch.
	MaxProtocol byte
	// OnStream, when set, is called after each completed backup stream
	// (the daemon uses it for logging). It may be called from multiple
	// session goroutines at once.
	OnStream func(name string, st StreamStats)
	// OnDelete, when set, is called after each successful MsgDelete
	// with what the deletion released. Same concurrency caveat.
	OnDelete func(name string, ds shardstore.DeleteStats)
	// Obs, when set, receives the server's metric families (and the
	// store's, via Store.Instrument). Nil means no instrumentation and
	// no overhead beyond one nil check per event.
	Obs *obs.Registry
	// Tracer, when set, records one span tree per client operation
	// (negotiate, backup, dedup backup, restore, delete) with children
	// at each lifecycle stage down through the store and its backing. A
	// version-4 client that sends a trace context gets its server spans
	// parented under its own, so both sides render as one tree. Nil
	// means no tracing and one nil check per operation.
	Tracer *obs.Tracer
	// Logger, when set, receives structured per-session events. Each
	// session logs under a unique "session" id, threaded from accept
	// through negotiate, commits and deletes to session end. Nil means
	// silent.
	Logger *slog.Logger
}

// DefaultConfig returns a service configuration: the paper's Rabin
// chunking with backup-study chunk limits, and 16 shards.
func DefaultConfig() Config {
	sc := core.DefaultConfig()
	sc.Chunking.MaskBits = 12
	sc.Chunking.Marker = 1<<12 - 1
	sc.Chunking.MinSize = 2 << 10
	sc.Chunking.MaxSize = 32 << 10
	return Config{Shards: 16, Shredder: sc, BatchSize: 64}
}

// Server chunks and dedups client streams against one shared sharded
// store. All exported methods are safe for concurrent use; each
// connection is one session and sessions run independently. Stream
// recipes are recorded in the store itself, so a durably-backed store
// (internal/persist) carries them across a restart.
type Server struct {
	cfg   Config
	eng   chunk.Engine // cuts the raw streams of sessions that never negotiate
	store *shardstore.Store
	met   *serverMetrics // nil when cfg.Obs is nil
	seq   atomic.Uint64  // session id source

	// Sessions spawned by Serve, tracked for Shutdown.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
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

// NewServer builds a server around a fresh in-memory store.
func NewServer(cfg Config) (*Server, error) {
	store, err := shardstore.New(cfg.Shards, cfg.ContainerSize)
	if err != nil {
		return nil, err
	}
	return NewServerWithStore(cfg, store)
}

// NewServerWithStore builds a server on an existing store — the way to
// serve a durable store reopened from a data directory (cfg.Shards and
// cfg.ContainerSize are ignored; the store's backing fixed them). The
// caller keeps ownership of the store and closes it after Shutdown.
func NewServerWithStore(cfg Config, store *shardstore.Store) (*Server, error) {
	if cfg.BatchSize < 0 {
		return nil, errors.New("ingest: negative batch size")
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	eng, err := newEngine(cfg, cfg.Shredder.Chunking)
	if err != nil {
		return nil, err
	}
	// One registry serves one store: Instrument is idempotent against
	// the same registry, so two servers sharing a store may share it too.
	store.Instrument(cfg.Obs)
	return &Server{
		cfg:   cfg,
		eng:   eng,
		store: store,
		met:   newServerMetrics(cfg.Obs),
		conns: make(map[net.Conn]struct{}),
	}, nil
}

// Store exposes the shared chunk store (for stats and tests).
func (s *Server) Store() *shardstore.Store { return s.store }

// Config returns the server's effective configuration (defaults
// applied).
func (s *Server) Config() Config { return s.cfg }

// Recipe returns the recorded recipe for a completed stream.
func (s *Server) Recipe(name string) (shardstore.Recipe, bool) {
	return s.store.Recipe(name)
}

// Serve accepts connections until the listener closes, running each
// session on its own goroutine. It returns the accept error (which is
// net.ErrClosed after a clean shutdown).
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.track(conn)
		go func() {
			defer s.untrack(conn)
			_ = s.ServeConn(conn)
		}()
	}
}

func (s *Server) track(conn net.Conn) {
	s.wg.Add(1)
	s.connMu.Lock()
	s.conns[conn] = struct{}{}
	s.connMu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	_ = conn.Close()
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	s.wg.Done()
}

// Shutdown drains the sessions Serve spawned: it waits up to grace for
// them to finish on their own, force-closes any stragglers, and waits
// for the rest. The caller closes the listener first (which makes
// Serve return) and the store afterwards. grace <= 0 force-closes
// immediately.
func (s *Server) Shutdown(grace time.Duration) {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
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
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.connMu.Unlock()
	<-done
}

// ServeConn runs one client session to completion: any number of
// backup and restore operations, until the peer disconnects. Raw
// streams are cut with the server's default engine until a Hello
// negotiates a different one; the store is shared either way. A
// session that negotiates version ≥ 3 may also run two-phase dedup
// backups, which the server never chunks (the client did).
func (s *Server) ServeConn(conn net.Conn) error {
	s.met.sessionStart()
	var sl *slog.Logger
	if s.cfg.Logger != nil {
		sl = s.cfg.Logger.With("session", s.seq.Add(1))
		remote := "?"
		if addr := conn.RemoteAddr(); addr != nil {
			remote = addr.String()
		}
		sl.Debug("session accepted", "remote", remote)
	}
	ver, err := s.serveSession(conn, sl)
	s.met.sessionEnd(ver, err)
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

// serveSession is ServeConn's frame loop, returning the negotiated
// protocol version alongside the session's fate.
func (s *Server) serveSession(conn net.Conn, sl *slog.Logger) (byte, error) {
	eng := s.eng
	var ver byte // negotiated protocol version; 0 = legacy raw session
	br := bufio.NewReaderSize(conn, 256<<10)
	bw := bufio.NewWriterSize(conn, 256<<10)
	var buf []byte
	for {
		typ, payload, rerr := readFrame(br, buf)
		if rerr == io.EOF {
			return ver, nil
		}
		if rerr != nil {
			return ver, rerr
		}
		s.met.frame(typ)
		buf = payload[:cap(payload)]
		switch typ {
		case MsgHello:
			neng, spec, nver, ctx, nerr := s.negotiate(payload)
			if nerr != nil {
				// A rejected negotiation is fatal to the session: the
				// client's next frames would be cut with an engine it
				// did not agree to. Send the bare reason — the client
				// wraps it in its own NegotiationError.
				reason := nerr.Error()
				var ne *NegotiationError
				if errors.As(nerr, &ne) {
					reason = ne.Reason
				}
				_ = writeFrame(bw, MsgError, []byte(reason))
				_ = bw.Flush()
				return ver, nerr
			}
			eng, ver = neng, nver
			sp := s.span("negotiate", ctx, obs.Int("protocol", int64(ver)))
			if sl != nil {
				sl.Debug("session negotiated", "protocol", ver,
					"algo", spec.Algo, "min", spec.MinSize, "max", spec.MaxSize)
			}
			err := writeFrame(bw, MsgAccept, encodeHello(ver, spec))
			if err == nil {
				err = bw.Flush()
			}
			sp.End()
			if err != nil {
				return ver, err
			}
		case MsgBegin:
			sp := s.span("backup", obs.SpanContext{}, obs.Str("recipe", string(payload)))
			err := s.handleBackup(string(payload), ver, eng, br, bw, sl, sp)
			sp.End()
			if err != nil {
				return ver, err
			}
		case MsgBeginDedup:
			if ver < 3 {
				ferr := &UnexpectedFrameError{Type: typ, Context: "session below protocol version 3"}
				_ = writeFrame(bw, MsgError, []byte(ferr.Error()))
				_ = bw.Flush()
				return ver, ferr
			}
			name, ctx, derr := decodeBeginDedup(ver, payload)
			if derr != nil {
				_ = writeFrame(bw, MsgError, []byte(derr.Error()))
				_ = bw.Flush()
				return ver, derr
			}
			sp := s.span("backup_dedup", ctx, obs.Str("recipe", name))
			err := s.handleDedupBackup(name, ver, br, bw, sl, sp)
			sp.End()
			if err != nil {
				return ver, err
			}
		case MsgDelete:
			if ver < 3 {
				ferr := &UnexpectedFrameError{Type: typ, Context: "session below protocol version 3"}
				_ = writeFrame(bw, MsgError, []byte(ferr.Error()))
				_ = bw.Flush()
				return ver, ferr
			}
			sp := s.span("delete", obs.SpanContext{}, obs.Str("recipe", string(payload)))
			err := s.handleDelete(string(payload), bw, sl, sp)
			sp.End()
			if err != nil {
				return ver, err
			}
		case MsgRestore:
			sp := s.span("restore", obs.SpanContext{}, obs.Str("recipe", string(payload)))
			err := s.handleRestore(string(payload), bw, sl, sp)
			sp.End()
			if err != nil {
				return ver, err
			}
		default:
			ferr := &UnexpectedFrameError{Type: typ, Context: "session"}
			_ = writeFrame(bw, MsgError, []byte(ferr.Error()))
			_ = bw.Flush()
			return ver, ferr
		}
	}
}

// span starts one per-operation root span: parented under the span the
// client announced on the wire when it sent a trace context, a fresh
// local root otherwise. Returns nil (a universal no-op) when the
// server has no tracer.
func (s *Server) span(name string, ctx obs.SpanContext, attrs ...obs.Attr) *obs.Span {
	if s.cfg.Tracer == nil {
		return nil
	}
	return s.cfg.Tracer.StartRemote(name, ctx, attrs...)
}

// negotiate validates a Hello payload and builds the session engine
// it describes, returning the engine, the accepted spec, the agreed
// protocol version and the client's trace context (zero below v4).
// Failures come back as *NegotiationError with the reason the client
// will see.
func (s *Server) negotiate(payload []byte) (chunk.Engine, chunk.Spec, byte, obs.SpanContext, error) {
	version, spec, ctx, err := decodeHello(payload)
	if err != nil {
		return nil, chunk.Spec{}, 0, ctx, &NegotiationError{Reason: err.Error()}
	}
	max := s.cfg.MaxProtocol
	if max == 0 {
		max = ProtocolVersion
	}
	if version < MinProtocolVersion || version > max {
		return nil, chunk.Spec{}, 0, ctx, &NegotiationError{
			Reason: fmt.Sprintf("unsupported protocol version %d (server speaks %d)", version, max),
		}
	}
	if spec.MaxSize > MaxFrame {
		return nil, chunk.Spec{}, 0, ctx, &NegotiationError{
			Reason: fmt.Sprintf("max chunk size %d exceeds the %d-byte frame limit", spec.MaxSize, MaxFrame),
		}
	}
	if version >= 3 && spec.MaxSize <= 0 {
		// A dedup client uploads each chunk body as one frame; an
		// unbounded engine could cut a chunk no frame can carry.
		return nil, chunk.Spec{}, 0, ctx, &NegotiationError{
			Reason: "dedup sessions need a bounded max chunk size within the frame limit",
		}
	}
	eng, err := newEngine(s.cfg, spec)
	if err != nil {
		return nil, chunk.Spec{}, 0, ctx, &NegotiationError{Reason: err.Error()}
	}
	return eng, spec, version, ctx, nil
}

// rawStream reads one raw backup stream off the session: Data frames
// up to the End frame.
type rawStream struct {
	r    *bufio.Reader
	met  *serverMetrics // nil ok
	buf  []byte         // frame buffer, reused across frames
	done bool           // the End frame has been read
	// broken is set when the stream itself violated the protocol
	// (truncation, bad frame): the connection is desynchronized and
	// must not be drained further.
	broken bool
}

// next returns the next Data payload — a view into the frame buffer,
// valid until the following call — or io.EOF once the End frame has
// been read.
func (rs *rawStream) next() ([]byte, error) {
	if rs.done {
		return nil, io.EOF
	}
	typ, payload, err := readFrame(rs.r, rs.buf)
	if err != nil {
		if err == io.EOF {
			// The peer closed on a frame boundary but never sent End:
			// the stream is truncated, not complete. A bare io.EOF here
			// would pass the partial stream off as a successful backup.
			err = &TruncatedError{Context: "backup stream before End frame", Cause: io.ErrUnexpectedEOF}
		}
		rs.broken = true
		return nil, err
	}
	rs.met.frame(typ)
	rs.buf = payload[:cap(payload)]
	switch typ {
	case MsgData:
		return payload, nil
	case MsgEnd:
		rs.done = true
		return nil, io.EOF
	default:
		rs.broken = true
		return nil, &UnexpectedFrameError{Type: typ, Context: "backup stream"}
	}
}

// drain consumes the remainder of a stream after a server-side error so
// the client can finish writing and read our Error frame (required for
// unbuffered transports like net.Pipe).
func (rs *rawStream) drain() {
	for {
		if _, err := rs.next(); err != nil {
			return
		}
	}
}

// handleBackup runs one stream through chunking, batched dedup and
// recipe recording, then replies with the stream's stats. The recipe
// is committed (durably, when the store's backing is) before the
// MsgStats ack goes out: a stream the client saw acknowledged survives
// a server restart.
func (s *Server) handleBackup(name string, ver byte, eng chunk.Engine, br *bufio.Reader, bw *bufio.Writer, sl *slog.Logger, sp *obs.Span) error {
	rs := &rawStream{r: br, met: s.met}
	st, recipe, err := s.ingest(eng, rs, sp)
	if err == nil {
		c := sp.Child("commit", obs.Int("chunks", int64(len(recipe))))
		t0 := time.Now()
		err = s.store.CommitRecipeTraced(name, recipe, c)
		s.met.observeCommit(time.Since(t0).Seconds(), sp.Trace())
		c.End()
	}
	if err != nil {
		// The stream dies uncommitted: give back the references the
		// flushed batches took, so the aborted backup cannot pin its
		// chunks against reclamation (recipe holds exactly the applied
		// prefix — ingest returns it on error for this purpose).
		if len(recipe) > 0 {
			_, _ = s.store.Release(recipe)
		}
		// Best-effort: let the client finish writing (net.Pipe has no
		// buffer) and hand it the error before the session dies. When
		// the stream itself broke protocol the connection is
		// desynchronized — draining would block on a peer that may
		// never send another frame, so abort immediately instead.
		if !rs.broken {
			rs.drain()
		}
		if werr := writeFrame(bw, MsgError, []byte(err.Error())); werr == nil {
			_ = bw.Flush()
		}
		return err
	}
	// On the raw path every logical byte crossed the wire as a Data
	// payload. The Wire block reaches v3 clients in the stats reply;
	// older clients reconstruct the same numbers locally.
	st.Wire = WireStats{LogicalBytes: st.Bytes, WireBytes: st.Bytes, ChunksSent: st.Chunks}
	st.Store = s.store.Stats()
	sp.Set(obs.Int("bytes", st.Bytes), obs.Int("chunks", st.Chunks),
		obs.Int("dup_chunks", st.DupChunks))
	s.met.streamCommitted(st)
	if sl != nil {
		sl.Info("stream committed", "recipe", name, "bytes", st.Bytes,
			"chunks", st.Chunks, "dup_chunks", st.DupChunks,
			"wire_bytes", st.Wire.WireBytes, "ratio", st.DedupRatio())
	}
	if s.cfg.OnStream != nil {
		s.cfg.OnStream(name, st)
	}
	if err := writeFrame(bw, MsgStats, st.encode(ver)); err != nil {
		return err
	}
	return bw.Flush()
}

// handleDedupBackup runs one two-phase content-addressed backup: the
// client sends fingerprint batches, the server answers each with the
// indices it is missing and takes a reference on every chunk it
// already holds — *inside* the answer, under the shard locks, so a
// chunk the client is told to skip can never be reclaimed out from
// under the stream — then ingests the uploaded bodies (verifying each
// against its announced fingerprint before it can poison the
// content-addressed store), and finally commits the recipe durably
// before acking with stats. Store and accounting outcomes are
// identical to the raw path over the same chunk sequence.
//
// Failure delivery mirrors the raw path's drain: an application-level
// failure (store error, rejected body) cannot just fire an Error frame
// — on an unbuffered transport the client may be blocked writing
// bodies while we block writing the error. Instead the handler keeps
// serving the protocol in drain mode (remaining bodies of the broken
// round are read and discarded, later HasBatches draw an empty
// NeedBatch so the client uploads nothing more, and no store state is
// touched) until the Commit turn, whose reply slot carries the error.
// Protocol violations abort immediately: the connection is
// desynchronized and draining it could block forever.
func (s *Server) handleDedupBackup(name string, ver byte, br *bufio.Reader, bw *bufio.Writer, sl *slog.Logger, sp *obs.Span) error {
	var st StreamStats
	var recipe shardstore.Recipe
	var buf []byte
	var appErr error // first application failure; drain mode afterwards
	// applied lists every reference this stream has actually taken so
	// far (pins and stored bodies alike). A stream that dies before its
	// Commit gives them back — otherwise every aborted backup would pin
	// its chunks against reclamation forever. Only references known to
	// be applied are listed: a batch that failed partway is left
	// counted (a bounded leak, swept by a future fsck) rather than
	// risk releasing references another stream holds.
	var applied shardstore.Recipe
	committed := false
	defer func() {
		if !committed && len(applied) > 0 {
			_, _ = s.store.Release(applied)
		}
	}()
	// abort is for protocol violations: best-effort error frame, die.
	abort := func(err error) error {
		if werr := writeFrame(bw, MsgError, []byte(err.Error())); werr == nil {
			_ = bw.Flush()
		}
		return err
	}
	for {
		typ, payload, rerr := readFrame(br, buf)
		if rerr != nil {
			if rerr == io.EOF {
				rerr = &TruncatedError{Context: "dedup backup stream before Commit frame", Cause: io.ErrUnexpectedEOF}
			}
			return rerr
		}
		s.met.frame(typ)
		buf = payload[:cap(payload)]
		switch typ {
		case MsgHasBatch:
			hs, err := decodeHasBatch(payload)
			if err != nil {
				return abort(err)
			}
			var refs []shardstore.Ref
			var missing []int
			if appErr == nil {
				st.Wire.WireBytes += int64(len(payload))
				hb := sp.Child("has_batch", obs.Int("chunks", int64(len(hs))))
				if refs, missing, err = s.store.PinBatchTraced(hs, hb); err != nil {
					appErr = err
				}
				hb.Set(obs.Int("missing", int64(len(missing))))
				hb.End()
			}
			if appErr != nil {
				// Draining: tell the client we need nothing so it keeps
				// its bodies and reaches Commit, where the error waits.
				if err := writeFrame(bw, MsgNeedBatch, nil); err != nil {
					return err
				}
				if err := bw.Flush(); err != nil {
					return err
				}
				continue
			}
			// Account the pinned (duplicate) chunks now; missing ones
			// are accounted as their bodies arrive.
			st.Wire.ChunksSkipped += int64(len(hs) - len(missing))
			s.met.pinned(len(hs) - len(missing))
			mi := 0
			for i := range hs {
				if mi < len(missing) && missing[mi] == i {
					mi++
					continue
				}
				applied = append(applied, hs[i])
				st.Chunks++
				st.DupChunks++
				st.Bytes += refs[i].Length
			}
			if err := writeFrame(bw, MsgNeedBatch, encodeNeedBatch(missing)); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			// Collect the missing bodies, in index order, ingesting in
			// store-batch-sized groups so memory stays bounded no
			// matter how large a batch the client announced. After a
			// failure the round's remaining bodies are still read (the
			// client already committed to sending them) but discarded.
			group := make([][]byte, 0, s.cfg.BatchSize)
			groupHs := make([]shardstore.Hash, 0, s.cfg.BatchSize)
			flushGroup := func() error {
				if len(group) == 0 {
					return nil
				}
				put := sp.Child("put_batch", obs.Int("chunks", int64(len(group))))
				_, pdup, err := s.store.PutHashedBatchTraced(groupHs, group, put)
				put.End()
				if err != nil {
					return err
				}
				applied = append(applied, groupHs...)
				for j := range group {
					st.Chunks++
					st.Bytes += int64(len(group[j]))
					if pdup[j] {
						// Another session stored it between our answer
						// and the upload: the body crossed the wire but
						// the store deduped it.
						st.DupChunks++
					} else {
						st.UniqueBytes += int64(len(group[j]))
					}
				}
				group, groupHs = group[:0], groupHs[:0]
				return nil
			}
			var rb *obs.Span
			if len(missing) > 0 {
				rb = sp.Child("recv_bodies", obs.Int("chunks", int64(len(missing))))
			}
			var rbBytes int64
			for _, i := range missing {
				btyp, body, err := readFrame(br, buf)
				if err != nil {
					if err == io.EOF {
						err = &TruncatedError{Context: "dedup backup body upload", Cause: io.ErrUnexpectedEOF}
					}
					rb.End()
					return err
				}
				s.met.frame(btyp)
				buf = body[:cap(body)]
				if btyp != MsgData {
					rb.End()
					return abort(&UnexpectedFrameError{Type: btyp, Context: "dedup body upload"})
				}
				rbBytes += int64(len(body))
				if appErr != nil {
					continue
				}
				if dedup.Sum(body) != hs[i] {
					// A body that does not hash to its announced
					// fingerprint would be stored under the wrong
					// address and corrupt every stream referencing it.
					appErr = fmt.Errorf("ingest: uploaded body for batch index %d does not match its fingerprint", i)
					continue
				}
				st.Wire.WireBytes += int64(len(body))
				st.Wire.ChunksSent++
				group = append(group, append([]byte(nil), body...))
				groupHs = append(groupHs, hs[i])
				if len(group) >= s.cfg.BatchSize {
					if err := flushGroup(); err != nil {
						appErr = err
					}
				}
			}
			rb.Set(obs.Int("bytes", rbBytes))
			rb.End()
			if appErr == nil {
				if err := flushGroup(); err != nil {
					appErr = err
				}
			}
			if appErr == nil {
				// The recipe is content-addressed: the round's
				// fingerprints in stream order, pinned and uploaded alike.
				recipe = append(recipe, hs...)
			}
		case MsgCommit:
			if appErr == nil {
				c := sp.Child("commit", obs.Int("chunks", int64(len(recipe))))
				t0 := time.Now()
				appErr = s.store.CommitRecipeTraced(name, recipe, c)
				s.met.observeCommit(time.Since(t0).Seconds(), sp.Trace())
				c.End()
			}
			if appErr != nil {
				if err := writeFrame(bw, MsgError, []byte(appErr.Error())); err != nil {
					return err
				}
				if err := bw.Flush(); err != nil {
					return err
				}
				return appErr
			}
			committed = true
			st.Wire.LogicalBytes = st.Bytes
			st.Store = s.store.Stats()
			sp.Set(obs.Int("bytes", st.Bytes), obs.Int("chunks", st.Chunks),
				obs.Int("dup_chunks", st.DupChunks),
				obs.Int("wire_bytes", st.Wire.WireBytes),
				obs.Int("chunks_skipped", st.Wire.ChunksSkipped))
			s.met.streamCommitted(st)
			if sl != nil {
				sl.Info("stream committed", "recipe", name, "bytes", st.Bytes,
					"chunks", st.Chunks, "dup_chunks", st.DupChunks,
					"wire_bytes", st.Wire.WireBytes,
					"chunks_skipped", st.Wire.ChunksSkipped, "ratio", st.DedupRatio())
			}
			if s.cfg.OnStream != nil {
				s.cfg.OnStream(name, st)
			}
			if err := writeFrame(bw, MsgStats, st.encode(ver)); err != nil {
				return err
			}
			return bw.Flush()
		default:
			return abort(&UnexpectedFrameError{Type: typ, Context: "dedup backup stream"})
		}
	}
}

// ingest chunks one stream — each Data payload written straight into
// the engine's stream — and dedups it against the shared store in
// BatchSize batches, returning the stream stats and its recipe.
func (s *Server) ingest(eng chunk.Engine, rs *rawStream, sp *obs.Span) (StreamStats, shardstore.Recipe, error) {
	var st StreamStats
	var recipe shardstore.Recipe
	batch := make([][]byte, 0, s.cfg.BatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		hs := make([]shardstore.Hash, len(batch))
		for i, c := range batch {
			hs[i] = dedup.Sum(c)
		}
		put := sp.Child("put_batch", obs.Int("chunks", int64(len(batch))))
		_, dup, err := s.store.PutHashedBatchTraced(hs, batch, put)
		put.End()
		if err != nil {
			return err
		}
		recipe = append(recipe, hs...)
		for i, c := range batch {
			st.Chunks++
			st.Bytes += int64(len(c))
			if dup[i] {
				st.DupChunks++
			} else {
				st.UniqueBytes += int64(len(c))
			}
		}
		batch = batch[:0]
		return nil
	}
	stm := eng.Stream(func(c chunk.Chunk, data []byte) error {
		// data is only valid for the call: copy before holding it
		// across the batch boundary.
		batch = append(batch, append([]byte(nil), data...))
		if len(batch) >= s.cfg.BatchSize {
			return flush()
		}
		return nil
	})
	// The partial recipe goes back even on error: it lists exactly the
	// references the flushed batches applied, which the caller releases
	// when the stream cannot commit.
	for {
		payload, err := rs.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return StreamStats{}, recipe, err
		}
		if _, err := stm.Write(payload); err != nil {
			return StreamStats{}, recipe, err
		}
	}
	if err := stm.Close(); err != nil {
		return StreamStats{}, recipe, err
	}
	if err := flush(); err != nil {
		return StreamStats{}, recipe, err
	}
	return st, recipe, nil
}

// handleDelete expires one named stream: the recipe is tombstoned
// durably and its chunk references released before the ack goes out.
// An unknown name is an application error the session survives (like
// an unknown restore); a store failure kills the session.
func (s *Server) handleDelete(name string, bw *bufio.Writer, sl *slog.Logger, sp *obs.Span) error {
	ds, err := s.store.DeleteRecipeTraced(name, sp)
	if err != nil {
		if werr := writeFrame(bw, MsgError, []byte(err.Error())); werr != nil {
			return werr
		}
		if ferr := bw.Flush(); ferr != nil {
			return ferr
		}
		if errors.Is(err, shardstore.ErrUnknownRecipe) {
			return nil
		}
		return err
	}
	sp.Set(obs.Int("released", ds.ChunksReleased),
		obs.Int("freed_chunks", ds.ChunksFreed), obs.Int("freed_bytes", ds.BytesFreed))
	if sl != nil {
		sl.Info("recipe deleted", "recipe", name, "released", ds.ChunksReleased,
			"freed_chunks", ds.ChunksFreed, "freed_bytes", ds.BytesFreed)
	}
	if s.cfg.OnDelete != nil {
		s.cfg.OnDelete(name, ds)
	}
	if err := writeFrame(bw, MsgDeleteOK, encodeDeleteResult(ds)); err != nil {
		return err
	}
	return bw.Flush()
}

// handleRestore streams a recorded recipe back as Data frames.
func (s *Server) handleRestore(name string, bw *bufio.Writer, sl *slog.Logger, sp *obs.Span) error {
	if sl != nil {
		sl.Debug("stream restored", "recipe", name)
	}
	recipe, ok := s.Recipe(name)
	if !ok {
		// The canonical unknown-recipe text: clients type it as a
		// *NotFoundError, exactly like an unknown delete.
		if err := writeFrame(bw, MsgError, []byte(fmt.Sprintf("%v: %q", shardstore.ErrUnknownRecipe, name))); err != nil {
			return err
		}
		return bw.Flush()
	}
	var sent int64
	for i, h := range recipe {
		data, ok, err := s.store.GetByHash(h)
		if err == nil && !ok {
			err = fmt.Errorf("stream %q entry %d: no chunk for %x", name, i, h[:8])
		}
		if err != nil {
			_ = writeFrame(bw, MsgError, []byte(err.Error()))
			return bw.Flush()
		}
		// Frame boundaries need not align to chunks: split oversized
		// chunks (possible when the pipeline runs without a MaxSize)
		// so a recorded stream can always be restored.
		for len(data) > 0 {
			n := len(data)
			if n > DefaultFrameSize {
				n = DefaultFrameSize
			}
			if err := writeFrame(bw, MsgData, data[:n]); err != nil {
				return err
			}
			sent += int64(n)
			data = data[n:]
		}
	}
	sp.Set(obs.Int("chunks", int64(len(recipe))), obs.Int("bytes", sent))
	if err := writeFrame(bw, MsgEnd, nil); err != nil {
		return err
	}
	return bw.Flush()
}
