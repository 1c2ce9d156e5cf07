package ingest

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// Session speaks the ingest protocol over one connection. It is not
// safe for concurrent use: a session runs one operation at a time
// (open several sessions for parallel streams — that is the point of
// the sharded server).
//
// A fresh Session speaks the legacy raw protocol (version 1: no
// negotiation, server-default engine). Negotiate upgrades it to
// version 2 (explicit chunking engine, still server-chunked);
// NegotiateDedup upgrades it to version 3, after which BackupDedup
// runs the negotiated engine locally and ships only fingerprints plus
// missing chunk bodies.
//
// A caller that cuts streams itself — a router fanning chunks out to
// their owner nodes — drives the dedup protocol's steps directly:
// BeginDedup opens a stream, HasBatch asks which of a batch's chunks the
// server lacks, WriteBody queues each owed body, and CommitDedup ends the
// stream. DedupRound is a round with the bodies in hand — HasBatch, then
// the owed bodies behind one flush — which is what BackupDedup runs for
// every batch its pipeline cuts.
type Session struct {
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	buf       []byte
	frameSize int

	// version is the negotiated protocol version (0 until a Hello is
	// accepted: the legacy raw session). spec and eng are set by a
	// successful negotiation; eng only by NegotiateDedup, which needs
	// the engine locally.
	version byte
	spec    chunk.Spec
	eng     chunk.Engine

	// tracer, when set via SetTracer, records one root span per
	// operation. On a version-4 session the span's context also rides
	// the Hello and BeginDedup frames, so a traced server parents its
	// own spans under ours.
	tracer *obs.Tracer

	// streamName is the name of the dedup stream opened by BeginDedup,
	// threaded into the errors of the round-level ops.
	streamName string

	// chunkWorkers, when > 1 (or < 0 for all cores), wraps the engine
	// NegotiateDedup builds in the parallel host chunker, so BackupDedup
	// cuts large streams on many cores with byte-identical output.
	chunkWorkers int

	// feed runs BackupDedup's streams, keeping their segment buffers from
	// one stream to the next.
	feed Feeder
}

// ErrDedupUnsupported reports a BackupDedup call on a session that has
// not negotiated protocol version 3 (NegotiateDedup was never called,
// or the server talked it down).
var ErrDedupUnsupported = errors.New("ingest: dedup backup requires a version ≥ 3 session (call NegotiateDedup first)")

// ErrDeleteUnsupported reports a Delete call on a session below
// protocol version 3 (deletion shipped with the v3 retention ops).
var ErrDeleteUnsupported = errors.New("ingest: delete requires a version ≥ 3 session (call NegotiateDedup first)")

// NewSession wraps an established connection (TCP, unix socket,
// net.Pipe, ...).
func NewSession(conn net.Conn) *Session {
	return &Session{
		conn:      conn,
		br:        bufio.NewReaderSize(conn, 256<<10),
		bw:        bufio.NewWriterSize(conn, 256<<10),
		frameSize: DefaultFrameSize,
	}
}

// Dial timeouts and retry bounds. A raw net.Dial against a dead node
// can hang for minutes (kernel SYN retries); every connect in this
// package is bounded instead, which a routing layer dialing many nodes
// depends on.
const (
	// DefaultDialTimeout bounds one connect attempt.
	DefaultDialTimeout = 5 * time.Second
	// DefaultDialBackoff is the pause before the second attempt; it
	// doubles per retry up to DefaultDialMaxBackoff.
	DefaultDialBackoff    = 50 * time.Millisecond
	DefaultDialMaxBackoff = 2 * time.Second
)

// DialOptions bounds how a Session connects: a per-attempt timeout and
// a retry budget with exponential backoff. The zero value means one
// attempt with DefaultDialTimeout — Dial's behavior.
type DialOptions struct {
	// Timeout bounds each connect attempt (0: DefaultDialTimeout).
	Timeout time.Duration
	// Attempts is the total number of connect attempts (0 or 1: no
	// retry).
	Attempts int
	// Backoff is the pause before the second attempt, doubling each
	// retry (0: DefaultDialBackoff). MaxBackoff caps the doubling
	// (0: DefaultDialMaxBackoff).
	Backoff    time.Duration
	MaxBackoff time.Duration
}

// Dial connects to addr under the options' bounds. All attempts
// failing returns the last attempt's error, wrapped with the attempt
// count so errors.Is/As still reach the transport cause.
func (o DialOptions) Dial(addr string) (*Session, error) {
	timeout := o.Timeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	attempts := o.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	backoff := o.Backoff
	if backoff <= 0 {
		backoff = DefaultDialBackoff
	}
	maxBackoff := o.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = DefaultDialMaxBackoff
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return NewSession(conn), nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("ingest: dial %s failed after %d attempt(s): %w", addr, attempts, lastErr)
}

// Dial connects to a shredderd server at addr: one attempt, bounded by
// DefaultDialTimeout (use DialOptions for retries or other bounds).
func Dial(addr string) (*Session, error) {
	return DialOptions{}.Dial(addr)
}

// Close terminates the session.
func (s *Session) Close() error { return s.conn.Close() }

// SetTracer attaches a tracer to the session: every subsequent
// operation records a root span (nil detaches — the default).
func (s *Session) SetTracer(t *obs.Tracer) { s.tracer = t }

// root starts one client-side operation span; nil (a no-op) when the
// session has no tracer.
func (s *Session) root(name string, attrs ...obs.Attr) *obs.Span {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.StartRoot(name, attrs...)
}

// Version returns the negotiated protocol version (0 for a legacy
// session that never sent a Hello).
func (s *Session) Version() byte { return s.version }

// Spec returns the negotiated chunking spec (zero until a Hello is
// accepted).
func (s *Session) Spec() chunk.Spec { return s.spec }

// Negotiate proposes a chunking engine for this session and returns
// the spec the server accepted. Call it before the first Backup;
// sessions that never negotiate get the server's default (Rabin)
// engine, wire-compatible with pre-negotiation servers. Negotiate
// sends a version-2 Hello — byte-identical to a legacy v2 client, so
// it works against any negotiating server — and leaves the session on
// the raw (server-chunked) path; use NegotiateDedup for client-side
// matching. A server that rejects the spec — or predates negotiation
// entirely and answers the unknown frame with an error — surfaces as
// *NegotiationError.
func (s *Session) Negotiate(spec chunk.Spec) (chunk.Spec, error) {
	return s.negotiate(MinProtocolVersion, spec)
}

// NegotiateDedup proposes a version-3 session: the client runs spec's
// engine locally and BackupDedup becomes available. The spec must
// bound chunk sizes (MaxSize in (0, MaxFrame]) so every chunk body
// fits one frame. Against a server that only speaks version 2 this
// fails with a *NegotiationError naming both versions and the session
// is dead — redial and fall back to Negotiate/Backup.
func (s *Session) NegotiateDedup(spec chunk.Spec) (chunk.Spec, error) {
	if spec.MaxSize <= 0 || spec.MaxSize > MaxFrame {
		return chunk.Spec{}, &NegotiationError{
			Reason: "dedup sessions need a bounded max chunk size within the frame limit",
		}
	}
	accepted, err := s.negotiate(ProtocolVersion, spec)
	if err != nil {
		return chunk.Spec{}, err
	}
	if s.version < 3 {
		return chunk.Spec{}, &NegotiationError{
			Reason: "server talked the session down below version 3; dedup backup unavailable",
		}
	}
	eng, err := chunk.New(accepted)
	if err != nil {
		return chunk.Spec{}, err
	}
	if s.chunkWorkers > 1 || s.chunkWorkers < 0 {
		eng = chunk.NewParallel(eng, s.chunkWorkers)
	}
	s.eng = eng
	return accepted, nil
}

// SetParallelChunking makes BackupDedup chunk large streams on up to
// workers cores (negative: all cores; 0 or 1: sequential). Chunk
// boundaries are byte-identical to the sequential engine — this is
// purely a local throughput knob and never affects the wire protocol
// or the server. Call it before NegotiateDedup; it also rewraps an
// already negotiated engine.
func (s *Session) SetParallelChunking(workers int) {
	s.chunkWorkers = workers
	if s.eng == nil {
		return
	}
	if p, ok := s.eng.(*chunk.Parallel); ok {
		s.eng = p.Inner()
	}
	if workers > 1 || workers < 0 {
		s.eng = chunk.NewParallel(s.eng, workers)
	}
}

func (s *Session) negotiate(version byte, spec chunk.Spec) (chunk.Spec, error) {
	if err := spec.Validate(); err != nil {
		return chunk.Spec{}, err
	}
	// The span's context rides the Hello on v4 proposals (older
	// versions stay byte-identical: encodeHelloCtx only appends there).
	sp := s.root("negotiate", obs.Int("protocol", int64(version)))
	defer sp.End()
	if err := writeFrame(s.bw, MsgHello, encodeHelloCtx(version, spec, sp.Context())); err != nil {
		return chunk.Spec{}, err
	}
	if err := s.bw.Flush(); err != nil {
		return chunk.Spec{}, err
	}
	typ, payload, err := readFrame(s.br, s.buf)
	if err != nil {
		return chunk.Spec{}, err
	}
	s.keep(payload)
	switch typ {
	case MsgAccept:
		ver, accepted, _, err := decodeHello(payload)
		if err != nil {
			return chunk.Spec{}, err
		}
		s.version = ver
		s.spec = accepted
		s.eng = nil
		return accepted, nil
	case MsgError:
		return chunk.Spec{}, &NegotiationError{Reason: string(payload)}
	default:
		return chunk.Spec{}, &UnexpectedFrameError{Type: typ, Context: "hello reply"}
	}
}

// Backup streams r to the server under the given name and returns the
// server's dedup statistics for the stream. The whole stream crosses
// the wire; the server chunks and dedups it (BackupDedup is the
// bandwidth-saving alternative on version ≥ 3 sessions).
func (s *Session) Backup(name string, r io.Reader) (*StreamStats, error) {
	sp := s.root("backup", obs.Str("recipe", name))
	defer sp.End()
	if err := writeFrame(s.bw, MsgBegin, []byte(name)); err != nil {
		return nil, err
	}
	if cap(s.buf) < s.frameSize {
		s.buf = make([]byte, s.frameSize)
	}
	buf := s.buf[:s.frameSize]
	var logical int64
	for {
		n, err := readFull(r, buf)
		if n > 0 {
			logical += int64(n)
			if werr := writeFrame(s.bw, MsgData, buf[:n]); werr != nil {
				return nil, s.surfaceRemote("backup", name, werr)
			}
			// Keep the transport moving: net.Pipe and small TCP windows
			// need the server consuming while we produce.
			if ferr := s.bw.Flush(); ferr != nil {
				return nil, s.surfaceRemote("backup", name, ferr)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if err := writeFrame(s.bw, MsgEnd, nil); err != nil {
		return nil, s.surfaceRemote("backup", name, err)
	}
	if err := s.bw.Flush(); err != nil {
		return nil, s.surfaceRemote("backup", name, err)
	}
	st, err := s.readStats("backup", name)
	if err != nil {
		return nil, err
	}
	sp.Set(obs.Int("bytes", logical), obs.Int("chunks", st.Chunks))
	if st.Wire == (WireStats{}) {
		// Legacy (< v3) servers don't report wire statistics: on the
		// raw path every logical byte crossed as a Data payload, so the
		// client can fill them exactly.
		st.Wire = WireStats{LogicalBytes: logical, WireBytes: logical, ChunksSent: st.Chunks}
	}
	return st, nil
}

// BeginDedup opens a two-phase dedup stream under name on a version
// ≥ 3 session, without chunking anything locally: the caller drives
// the rounds itself — HasBatch and a WriteBody per owed body, or
// DedupRound — and ends the stream with CommitDedup. This is the
// routing-layer surface — a router that already holds chunked pieces
// fans them out to owner nodes through these calls. parent, when valid on a v4 session, rides
// the BeginDedup frame so the server's span parents under the caller's
// (BackupDedup passes its own root; a router passes the span of the
// client operation it is serving). Plain clients should keep using
// BackupDedup, which wraps the whole exchange.
func (s *Session) BeginDedup(name string, parent obs.SpanContext) error {
	if s.version < 3 {
		return ErrDedupUnsupported
	}
	s.streamName = name
	return writeFrame(s.bw, MsgBeginDedup, encodeBeginDedup(s.version, name, parent))
}

// HasBatch runs one fingerprint round on a dedup stream opened with
// BeginDedup: the batch goes out, and the server's answer — the
// ascending indices into hs it has no chunk for — comes back. Every
// index the server does NOT return is pinned server-side under the
// stream. The caller must follow with exactly one body per returned
// index, in order (WriteBody), before the next HasBatch or
// CommitDedup.
func (s *Session) HasBatch(hs []dedup.Hash) ([]int, error) {
	if err := writeFrame(s.bw, MsgHasBatch, encodeHasBatch(hs)); err != nil {
		return nil, s.surfaceRemote("dedup backup", s.streamName, err)
	}
	if err := s.bw.Flush(); err != nil {
		return nil, s.surfaceRemote("dedup backup", s.streamName, err)
	}
	typ, payload, err := readFrame(s.br, s.buf)
	if err != nil {
		return nil, err
	}
	s.keep(payload)
	switch typ {
	case MsgNeedBatch:
		return decodeNeedBatch(payload, len(hs))
	case MsgError:
		return nil, &RemoteError{Msg: string(payload), Op: "dedup backup", Name: s.streamName}
	default:
		return nil, &UnexpectedFrameError{Type: typ, Context: "has-batch reply"}
	}
}

// WriteBody queues one chunk body as a Data frame without flushing; the
// session's next HasBatch or CommitDedup flushes it ahead of its own
// frame. A router forwarding a round's bodies one at a time as they
// arrive uses this to avoid a flush (typically a syscall) per chunk —
// the server does not answer bodies, so nothing is lost by batching.
func (s *Session) WriteBody(b []byte) error {
	if err := writeFrame(s.bw, MsgData, b); err != nil {
		return s.surfaceRemote("dedup backup", s.streamName, err)
	}
	return nil
}

// DedupRound is one round with the bodies held locally: HasBatch(hs),
// then the bodies the server asked for behind one flush. bodies[i] must
// be the chunk hashing to hs[i]. Returns the missing set the server
// answered (the bodies that actually crossed).
func (s *Session) DedupRound(hs []dedup.Hash, bodies [][]byte) ([]int, error) {
	return s.dedupRound(nil, hs, bodies)
}

// CommitDedup ends a dedup stream opened with BeginDedup: the server
// durably records the recipe accumulated from the rounds and answers
// with the stream's stats.
func (s *Session) CommitDedup() (*StreamStats, error) {
	if err := writeFrame(s.bw, MsgCommit, nil); err != nil {
		return nil, s.surfaceRemote("dedup backup", s.streamName, err)
	}
	if err := s.bw.Flush(); err != nil {
		return nil, s.surfaceRemote("dedup backup", s.streamName, err)
	}
	return s.readStats("dedup backup", s.streamName)
}

// BackupDedup backs up r under name over the two-phase content-
// addressed protocol: the session's negotiated engine chunks the
// stream locally, fingerprints go first, and only the chunk bodies the
// server reports missing are uploaded, followed by a commit the server
// durably acks. Requires NegotiateDedup. The returned stats carry the
// server-computed WireStats — the whole point of the exercise.
//
// The work is pipelined (see chunkPipeline): while this goroutine runs
// round N on the wire, round N+1 is being cut and fingerprinted from
// pooled segment buffers, and bodies are sent straight out of those
// buffers. A stream that ends inside its first segment has nothing to
// overlap and is cut and fingerprinted on this goroutine: no goroutine
// is started for it. One round is on the wire at a time, so the frames
// are the ones a sequential client would send. The session keeps at most
// pipelineDepth+2 segment buffers for its streams: 24 MiB. The engine
// scans them in place, so only a spec whose chunks exceed half a segment
// (2 MiB) — or one with no MaxSize, on data without boundaries — makes
// each buffer larger than a segment, by that one un-cut chunk.
//
// ErrDedupUnsupported is returned before anything is sent and leaves
// the session usable. Every other failure leaves it dead, to be
// closed. A failing r — any error of r's but io.EOF fails the stream,
// and is returned as it is after the rounds that r's bytes completed —
// strands the stream half-sent, and only the close makes the server
// give back what the stream pinned; a *RemoteError, an unexpected frame
// or a transport error means the server has dropped the connection or
// is out of step with it. BackupDedup returns only after its goroutines
// have exited, which includes waiting out a Read on r that is in
// flight.
func (s *Session) BackupDedup(name string, r io.Reader) (*StreamStats, error) {
	if s.version < 3 || s.eng == nil {
		return nil, ErrDedupUnsupported
	}
	// On a v4 session the root span's context rides the BeginDedup
	// frame, so the server's backup_dedup span parents under this one
	// and both sides merge into a single tree.
	sp := s.root("backup_dedup", obs.Str("recipe", name))
	defer sp.End()
	if err := s.BeginDedup(name, sp.Context()); err != nil {
		return nil, err
	}
	ft, err := s.feed.Feed(rounds{s, sp}, s.eng, r)
	if err != nil {
		return nil, err
	}
	c := sp.Child("commit")
	t0 := time.Now()
	st, err := s.CommitDedup()
	wire := ft.Store + time.Since(t0) // the rounds and the commit
	c.End()
	if err != nil {
		return nil, err
	}
	if sp != nil {
		sp.Set(obs.Int("bytes", st.Bytes), obs.Int("chunks", st.Chunks),
			obs.Int("wire_bytes", st.Wire.WireBytes),
			obs.Int("chunks_skipped", st.Wire.ChunksSkipped),
			obs.Float("scan_s", ft.Scan.Seconds()),
			obs.Float("hash_s", ft.Hash.Seconds()),
			obs.Float("wire_s", wire.Seconds()),
			obs.Float("wire_idle_s", ft.Idle.Seconds()),
			obs.Float("producer_stall_s", ft.Stall.Seconds()))
	}
	return st, nil
}

// rounds runs each batch BackupDedup's pipeline cuts as one round, under
// the stream's span.
type rounds struct {
	s  *Session
	sp *obs.Span
}

func (r rounds) Add(hs []dedup.Hash, bodies [][]byte) error {
	_, err := r.s.dedupRound(r.sp, hs, bodies)
	return err
}

// dedupRound is a round with the bodies in hand: HasBatch, then the
// bodies the server asked for, written out of bodies behind one flush. sp
// gets the round's has_batch and upload spans.
func (s *Session) dedupRound(sp *obs.Span, hs []dedup.Hash, bodies [][]byte) ([]int, error) {
	hb := sp.Child("has_batch", obs.Int("chunks", int64(len(hs))))
	missing, err := s.HasBatch(hs)
	if err != nil {
		hb.End()
		return nil, err
	}
	hb.Set(obs.Int("missing", int64(len(missing))))
	hb.End()
	up := sp.Child("upload", obs.Int("chunks", int64(len(missing))))
	defer up.End()
	var upBytes int64
	for _, i := range missing {
		if err := s.WriteBody(bodies[i]); err != nil {
			return nil, err
		}
		upBytes += int64(len(bodies[i]))
	}
	if err := s.bw.Flush(); err != nil {
		return nil, s.surfaceRemote("dedup backup", s.streamName, err)
	}
	up.Set(obs.Int("bytes", upBytes))
	return missing, nil
}

// BackupBytes is Backup over an in-memory image.
func (s *Session) BackupBytes(name string, data []byte) (*StreamStats, error) {
	return s.Backup(name, bytes.NewReader(data))
}

// BackupDedupBytes is BackupDedup over an in-memory image.
func (s *Session) BackupDedupBytes(name string, data []byte) (*StreamStats, error) {
	return s.BackupDedup(name, bytes.NewReader(data))
}

// readStats consumes the server's end-of-stream reply.
func (s *Session) readStats(op, name string) (*StreamStats, error) {
	typ, payload, err := readFrame(s.br, s.buf)
	if err != nil {
		return nil, err
	}
	s.keep(payload)
	switch typ {
	case MsgStats:
		st, err := decodeStreamStats(payload)
		if err != nil {
			return nil, err
		}
		return &st, nil
	case MsgError:
		return nil, &RemoteError{Msg: string(payload), Op: op, Name: name}
	default:
		return nil, &UnexpectedFrameError{Type: typ, Context: op + " reply"}
	}
}

// surfaceRemote recovers the server's own diagnosis of a broken
// stream. When the server aborts mid-stream (a store failure, a
// rejected body) it sends an Error frame and closes; the client's next
// write then fails with a bare transport error ("closed pipe") and the
// actual reason would be lost sitting in the receive buffer. Given the
// write error, try briefly to read that Error frame and return it as a
// *RemoteError instead; fall back to the write error.
func (s *Session) surfaceRemote(op, name string, werr error) error {
	if err := s.conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return werr
	}
	defer s.conn.SetReadDeadline(time.Time{})
	typ, payload, err := readFrame(s.br, s.buf)
	if err != nil || typ != MsgError {
		return werr
	}
	s.keep(payload)
	return &RemoteError{Msg: string(payload), Op: op, Name: name}
}

// remoteErr types a MsgError payload: the store's canonical unknown-
// recipe marker becomes a *NotFoundError (matching ErrNotFound, so a
// router can tell "not on this node" from "this node failed"); any
// other server text stays a *RemoteError verbatim.
func remoteErr(op, name string, payload []byte) error {
	if strings.Contains(string(payload), shardstore.ErrUnknownRecipe.Error()) {
		return &NotFoundError{Op: op, Name: name}
	}
	return &RemoteError{Msg: string(payload), Op: op, Name: name}
}

// Delete expires a previously backed-up stream on the server: its
// recipe is durably tombstoned and every chunk reference it held is
// released, so chunks no retained stream uses become reclaimable by
// the server's compactor. Requires a version ≥ 3 session
// (NegotiateDedup). Deleting a name the server has no recipe for comes
// back as a *NotFoundError (errors.Is(err, ErrNotFound)) and the
// session stays usable.
func (s *Session) Delete(name string) (*shardstore.DeleteStats, error) {
	if s.version < 3 {
		return nil, ErrDeleteUnsupported
	}
	sp := s.root("delete", obs.Str("recipe", name))
	defer sp.End()
	if err := writeFrame(s.bw, MsgDelete, []byte(name)); err != nil {
		return nil, err
	}
	if err := s.bw.Flush(); err != nil {
		return nil, err
	}
	typ, payload, err := readFrame(s.br, s.buf)
	if err != nil {
		return nil, err
	}
	s.keep(payload)
	switch typ {
	case MsgDeleteOK:
		ds, err := decodeDeleteResult(payload)
		if err != nil {
			return nil, err
		}
		return &ds, nil
	case MsgError:
		return nil, remoteErr("delete", name, payload)
	default:
		return nil, &UnexpectedFrameError{Type: typ, Context: "delete reply"}
	}
}

// RestoreStream is an in-flight restore: an io.Reader over the
// restored bytes as they arrive, frame by frame. The session can run
// no other operation until the stream is read to EOF (or Closed, which
// drains it). An unknown name surfaces on the first Read as a
// *NotFoundError.
type RestoreStream struct {
	s     *Session
	name  string
	sp    *obs.Span
	frame []byte // unconsumed tail of the current Data payload
	total int64
	done  bool
	err   error
}

// OpenRestore starts restoring a previously backed-up name and returns
// the byte stream. Restore wraps it for whole-stream copies; a routing
// layer reads several nodes' streams side by side to interleave them.
func (s *Session) OpenRestore(name string) (*RestoreStream, error) {
	sp := s.root("restore", obs.Str("recipe", name))
	if err := writeFrame(s.bw, MsgRestore, []byte(name)); err != nil {
		sp.End()
		return nil, err
	}
	if err := s.bw.Flush(); err != nil {
		sp.End()
		return nil, err
	}
	return &RestoreStream{s: s, name: name, sp: sp}, nil
}

// next loads the following Data frame into r.frame. io.EOF reports the
// clean end of the stream; every other error is terminal and sticky.
func (r *RestoreStream) next() error {
	if r.err != nil {
		return r.err
	}
	if r.done {
		return io.EOF
	}
	typ, payload, err := readFrame(r.s.br, r.s.buf)
	if err != nil {
		r.fail(err)
		return err
	}
	r.s.keep(payload)
	switch typ {
	case MsgData:
		r.frame = payload
		return nil
	case MsgEnd:
		r.done = true
		r.sp.Set(obs.Int("bytes", r.total))
		r.sp.End()
		return io.EOF
	case MsgError:
		err := remoteErr("restore", r.name, payload)
		r.fail(err)
		return err
	default:
		err := &UnexpectedFrameError{Type: typ, Context: "restore stream"}
		r.fail(err)
		return err
	}
}

func (r *RestoreStream) Read(p []byte) (int, error) {
	for len(r.frame) == 0 {
		if err := r.next(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.frame)
	r.frame = r.frame[n:]
	r.total += int64(n)
	return n, nil
}

// NextChunk returns the next whole Data frame's payload. The server
// emits one Data frame per recipe entry whenever chunks fit a frame
// (MaxSize ≤ DefaultFrameSize), so against a bounded-chunk server this
// reads the stream chunk by chunk — how the routing layer re-interleaves
// per-node subsequences into the original stream. Do not mix with Read
// mid-frame. The slice aliases the session's buffer: it is valid only
// until the next operation on this session. io.EOF reports the clean
// end of the stream.
func (r *RestoreStream) NextChunk() ([]byte, error) {
	if len(r.frame) == 0 {
		if err := r.next(); err != nil {
			return nil, err
		}
	}
	c := r.frame
	r.frame = nil
	r.total += int64(len(c))
	return c, nil
}

// fail latches a terminal error (sticky across Reads) and ends the
// operation span.
func (r *RestoreStream) fail(err error) {
	r.err = err
	r.sp.End()
}

// Bytes returns how many restored bytes have been read so far.
func (r *RestoreStream) Bytes() int64 { return r.total }

// Close drains any unread remainder so the session is usable again. A
// stream that already hit a protocol error stays broken — the
// connection is desynchronized and the session should be discarded.
func (r *RestoreStream) Close() error {
	if r.err != nil {
		return r.err
	}
	for !r.done {
		if _, err := io.CopyN(io.Discard, r, 256<<10); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}

// Restore streams a previously backed-up name from the server into w,
// returning the byte count. An unknown name comes back as a
// *NotFoundError (errors.Is(err, ErrNotFound)).
func (s *Session) Restore(name string, w io.Writer) (int64, error) {
	rs, err := s.OpenRestore(name)
	if err != nil {
		return 0, err
	}
	if _, err := io.Copy(w, rs); err != nil {
		return rs.Bytes(), err
	}
	return rs.Bytes(), nil
}

// RestoreBytes is Restore into memory.
func (s *Session) RestoreBytes(name string) ([]byte, error) {
	var out bytes.Buffer
	if _, err := s.Restore(name, &out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Verify restores name and checks it against original byte-for-byte.
func (s *Session) Verify(name string, original []byte) error {
	got, err := s.RestoreBytes(name)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, original) {
		return errors.New("ingest: restored stream differs from original")
	}
	return nil
}

// keep retains a grown frame buffer for reuse.
func (s *Session) keep(payload []byte) {
	if cap(payload) > cap(s.buf) {
		s.buf = payload[:cap(payload)]
	}
}
