// Package ingest implements the Shredder service layer: a streaming
// chunk-and-dedup server (the shredderd daemon) and its client, talking
// a length-prefixed binary protocol over any net.Conn. The protocol is
// content-addressed: a Session that negotiates protocol version 3 runs
// the agreed chunking engine locally, ships fingerprint batches first,
// and uploads only the chunk bodies the server reports missing — the
// paper's backup-site design, where dedup happens *before* data
// crosses the constrained link. Legacy sessions stream raw bytes and
// the server chunks and dedups them server-side, exactly as earlier
// protocol revisions did. Either way every session dedups against a
// sharded shardstore.Store shared by all sessions — the consolidation
// point of the paper's §7 cloud-backup case study, made concurrent.
//
// Wire format: every frame is a 1-byte type, a 4-byte big-endian
// payload length, then the payload. A session optionally opens with a
// negotiation exchange selecting the protocol version and chunking
// engine,
//
//	C→S  Hello(version, spec)
//	S→C  Accept(version, spec) | Error
//
// after which a raw (server-chunked) backup operation is
//
//	C→S  Begin(name) Data* End
//	S→C  Stats | Error
//
// a two-phase dedup (client-chunked, version ≥ 3) backup operation is
//
//	C→S  BeginDedup(name)
//	     repeat:  C→S  HasBatch(fp...)
//	              S→C  NeedBatch(indices of missing fps)
//	              C→S  one Data frame per missing fp, in index order
//	C→S  Commit
//	S→C  Stats | Error
//
// a restore operation is
//
//	C→S  Restore(name)
//	S→C  Data* End | Error
//
// and a delete operation (version ≥ 3) — the retention path, which
// expires a stream and releases its chunk references server-side — is
//
//	C→S  Delete(name)
//	S→C  DeleteOK(stats) | Error
//
// Clients that skip the Hello get the server's default engine — the
// Rabin configuration earlier protocol revisions hardwired — so legacy
// sessions are byte-for-byte unchanged. Frames from concurrent clients
// are never interleaved: each session owns its connection.
//
// Protocol version 4 adds distributed tracing: Hello and BeginDedup
// gain an *optional* 24-byte trace-context field (16-byte trace ID +
// 8-byte span ID, see obs.SpanContext) so the server's spans parent
// onto the client's and one trace covers both sides of the wire. The
// field rides only on sessions that negotiated version 4 and only when
// the client is actually tracing — v2/v3 sessions, and untraced v4
// sessions, stay byte-identical.
//
// # Version-fallback matrix
//
//	v1 client (no Hello)      → v4 server: raw path, byte-identical
//	v2 client (Hello v2)      → v4 server: Accept v2, raw path, byte-identical
//	v3 client (Hello v3)      → v4 server: Accept v3, dedup + raw available
//	v4 client (Hello v4)      → v4 server: Accept v4, dedup + raw + tracing
//	v4 client, engine-only    → v2 server: sends Hello v2, indistinguishable
//	  (Negotiate)                           from a v2 client
//	v4 client (NegotiateDedup)→ v2/v3 server: typed NegotiationError naming
//	                            both versions; redial and fall back to
//	                            Negotiate/Backup
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// Frame types.
const (
	// MsgBegin opens a backup stream; the payload is the stream name.
	MsgBegin byte = iota + 1
	// MsgData carries raw stream bytes (either direction).
	MsgData
	// MsgEnd terminates a sequence of MsgData frames.
	MsgEnd
	// MsgStats is the server's reply to a completed backup stream; the
	// payload is an encoded StreamStats.
	MsgStats
	// MsgRestore asks the server to stream a named recipe back.
	MsgRestore
	// MsgError carries an error message and aborts the operation.
	MsgError
	// MsgHello proposes a session configuration: a 1-byte protocol
	// version followed by a wire-encoded chunk.Spec.
	MsgHello
	// MsgAccept is the server's ack of a MsgHello; the payload echoes
	// the accepted version and spec.
	MsgAccept
	// MsgBeginDedup opens a client-chunked (two-phase dedup) backup
	// stream; the payload is the stream name. Requires a version ≥ 3
	// session.
	MsgBeginDedup
	// MsgHasBatch carries a batch of chunk fingerprints (n × 32 bytes)
	// the client is about to reference, in stream order.
	MsgHasBatch
	// MsgNeedBatch is the server's reply to a MsgHasBatch: the
	// ascending indices (4 bytes each) of the fingerprints it has no
	// chunk for and whose bodies the client must upload.
	MsgNeedBatch
	// MsgCommit ends a dedup backup stream: the server durably records
	// the recipe and replies with MsgStats.
	MsgCommit
	// MsgDelete asks the server to expire a named stream: the recipe is
	// durably tombstoned and its chunk references released (chunks
	// reaching zero references become reclaimable by compaction).
	// Requires a version ≥ 3 session.
	MsgDelete
	// MsgDeleteOK is the server's ack of a MsgDelete; the payload is an
	// encoded DeleteStats.
	MsgDeleteOK
)

// ProtocolVersion is the newest protocol revision this package speaks:
// version 4, which adds optional trace-context propagation on
// Hello/BeginDedup on top of version 3's content-addressed two-phase
// dedup ingest (BeginDedup/HasBatch/NeedBatch/Commit). A Hello carries
// the version the client wants so mismatched peers fail with a typed
// error instead of a parse failure.
const ProtocolVersion byte = 4

// MinProtocolVersion is the oldest Hello the server still accepts
// (version 2, engine negotiation only). Version-1 sessions send no
// Hello at all.
const MinProtocolVersion byte = 2

// MaxFrame bounds a single frame payload; a peer announcing more is
// corrupt (or hostile) and the connection is dropped.
const MaxFrame = 16 << 20

// DefaultFrameSize is the data payload size clients cut streams into.
const DefaultFrameSize = 1 << 20

const headerSize = 5

// writeFrame emits one frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return &FrameSizeError{Type: typ, Size: int64(len(payload)), Limit: MaxFrame}
	}
	var hdr [headerSize]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		// Skip the empty write: net.Pipe synchronizes even zero-length
		// writes with a reader, which would block a frame like End.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readHeader reads one frame header: the frame's type and how many
// payload bytes follow. A clean connection close on a frame boundary
// returns bare io.EOF; a cut header or an oversized announcement comes
// back typed.
func readHeader(r io.Reader) (typ byte, n int, err error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, io.EOF
		}
		return 0, 0, &TruncatedError{Context: "frame header", Cause: err}
	}
	size := binary.BigEndian.Uint32(hdr[1:])
	if size > MaxFrame {
		return 0, 0, &FrameSizeError{Type: hdr[0], Size: int64(size), Limit: MaxFrame}
	}
	return hdr[0], int(size), nil
}

// cutPayload is the error for a frame whose n-byte payload ended early.
func cutPayload(typ byte, n int, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return &TruncatedError{Context: fmt.Sprintf("frame type %d payload (%d bytes)", typ, n), Cause: err}
}

// readFrame reads one frame, reusing buf for the payload when it is
// large enough. The returned slice aliases buf (or a fresh allocation)
// and is valid until the next call with the same buf. A clean
// connection close on a frame boundary returns bare io.EOF; every
// other failure comes back typed (FrameSizeError, TruncatedError).
func readFrame(r io.Reader, buf []byte) (byte, []byte, error) {
	typ, n, err := readHeader(r)
	if err != nil {
		return 0, nil, err
	}
	if n > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, cutPayload(typ, n, err)
	}
	return typ, buf, nil
}

// specWireSize is the encoded size of a chunk.Spec, computed once so
// the v4 hello decoder can split the optional trailing trace context
// off without chunk exporting its framing.
var specWireSize = len(chunk.EncodeSpec(chunk.Spec{}))

// encodeHello builds a MsgHello/MsgAccept payload with no trace
// context — the v2/v3 layout, which is also a valid v4 payload.
func encodeHello(version byte, spec chunk.Spec) []byte {
	return append([]byte{version}, chunk.EncodeSpec(spec)...)
}

// encodeHelloCtx builds a MsgHello payload carrying a trace context.
// The field only exists in version ≥ 4; an invalid context (or an
// older version) degrades to the plain layout, keeping untraced v4
// sessions byte-identical to v3 ones.
func encodeHelloCtx(version byte, spec chunk.Spec, ctx obs.SpanContext) []byte {
	p := encodeHello(version, spec)
	if version >= 4 && ctx.Valid() {
		p = append(p, ctx.Encode()...)
	}
	return p
}

// decodeHello parses a MsgHello/MsgAccept payload. The spec is
// validated, so an unknown algorithm id or inconsistent sizes surface
// here as the decode error. On a version ≥ 4 payload of exactly
// spec + 24 bytes the tail is the sender's trace context (zero when
// absent); older versions never carry one.
func decodeHello(p []byte) (byte, chunk.Spec, obs.SpanContext, error) {
	if len(p) < 1 {
		return 0, chunk.Spec{}, obs.SpanContext{}, errors.New("ingest: empty hello payload")
	}
	version, body := p[0], p[1:]
	var ctx obs.SpanContext
	if version >= 4 && len(body) == specWireSize+obs.SpanContextWireSize {
		ctx, _ = obs.DecodeSpanContext(body[specWireSize:])
		body = body[:specWireSize]
	}
	spec, err := chunk.DecodeSpec(body)
	if err != nil {
		return version, chunk.Spec{}, obs.SpanContext{}, err
	}
	return version, spec, ctx, nil
}

// encodeBeginDedup builds a MsgBeginDedup payload. Through version 3
// the payload is the bare stream name. Version 4 prefixes a flag byte
// (0: no context; 1: a 24-byte trace context follows, then the name)
// so traced and untraced streams are unambiguous.
func encodeBeginDedup(version byte, name string, ctx obs.SpanContext) []byte {
	if version < 4 {
		return []byte(name)
	}
	if !ctx.Valid() {
		return append([]byte{0}, name...)
	}
	p := make([]byte, 0, 1+obs.SpanContextWireSize+len(name))
	p = append(p, 1)
	p = append(p, ctx.Encode()...)
	return append(p, name...)
}

// decodeBeginDedup parses a MsgBeginDedup payload for the session's
// negotiated version.
func decodeBeginDedup(version byte, p []byte) (string, obs.SpanContext, error) {
	if version < 4 {
		return string(p), obs.SpanContext{}, nil
	}
	if len(p) < 1 {
		return "", obs.SpanContext{}, errors.New("ingest: empty begin-dedup payload")
	}
	switch p[0] {
	case 0:
		return string(p[1:]), obs.SpanContext{}, nil
	case 1:
		if len(p) < 1+obs.SpanContextWireSize {
			return "", obs.SpanContext{}, errors.New("ingest: begin-dedup payload truncates its trace context")
		}
		ctx, _ := obs.DecodeSpanContext(p[1 : 1+obs.SpanContextWireSize])
		return string(p[1+obs.SpanContextWireSize:]), ctx, nil
	default:
		return "", obs.SpanContext{}, fmt.Errorf("ingest: begin-dedup trace flag %d unknown", p[0])
	}
}

// hashSize is the wire size of one chunk fingerprint.
const hashSize = len(dedup.Hash{})

// MaxBatchFingerprints bounds one MsgHasBatch (it must fit a frame).
const MaxBatchFingerprints = MaxFrame / hashSize

// encodeHasBatch packs fingerprints into a MsgHasBatch payload.
func encodeHasBatch(hs []dedup.Hash) []byte {
	out := make([]byte, 0, len(hs)*hashSize)
	for i := range hs {
		out = append(out, hs[i][:]...)
	}
	return out
}

// decodeHasBatch parses a MsgHasBatch payload. The batch size is
// implied by the payload length, which must be a whole number of
// fingerprints.
func decodeHasBatch(p []byte) ([]dedup.Hash, error) {
	if len(p)%hashSize != 0 {
		return nil, fmt.Errorf("ingest: has-batch payload of %d bytes is not a whole number of %d-byte fingerprints", len(p), hashSize)
	}
	hs := make([]dedup.Hash, len(p)/hashSize)
	for i := range hs {
		copy(hs[i][:], p[i*hashSize:])
	}
	return hs, nil
}

// encodeNeedBatch packs ascending batch indices into a MsgNeedBatch
// payload.
func encodeNeedBatch(idxs []int) []byte {
	out := make([]byte, 4*len(idxs))
	for i, v := range idxs {
		binary.BigEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// decodeNeedBatch parses a MsgNeedBatch payload against the size of
// the batch it answers: indices must be in range and strictly
// ascending (so the body upload order is unambiguous and no body is
// requested twice).
func decodeNeedBatch(p []byte, batch int) ([]int, error) {
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("ingest: need-batch payload of %d bytes is not a whole number of indices", len(p))
	}
	idxs := make([]int, len(p)/4)
	prev := -1
	for i := range idxs {
		v := int(binary.BigEndian.Uint32(p[4*i:]))
		if v <= prev || v >= batch {
			return nil, fmt.Errorf("ingest: need-batch index %d invalid after %d in a batch of %d", v, prev, batch)
		}
		idxs[i] = v
		prev = v
	}
	return idxs, nil
}

// WireStats measures what one stream actually cost on the wire, the
// figure the paper's client-side matching exists to shrink. Bytes
// count frame payloads carrying stream content in the client→server
// direction: Data bodies plus fingerprint batches (frame headers and
// the tiny control frames are excluded).
type WireStats struct {
	// LogicalBytes is the stream's full size.
	LogicalBytes int64
	// WireBytes is what actually crossed: equal to LogicalBytes on the
	// raw path; fingerprints plus missing bodies on the dedup path.
	WireBytes int64
	// ChunksSent counts chunk bodies that crossed the wire;
	// ChunksSkipped counts chunks resolved by fingerprint alone.
	ChunksSent    int64
	ChunksSkipped int64
}

// Saved returns the bytes the two-phase protocol kept off the wire
// (zero on the raw path, where fingerprint overhead does not apply).
func (w WireStats) Saved() int64 {
	if w.WireBytes >= w.LogicalBytes {
		return 0
	}
	return w.LogicalBytes - w.WireBytes
}

// StreamStats summarizes one backed-up stream as seen by the server.
type StreamStats struct {
	// Bytes, Chunks, DupChunks and UniqueBytes describe this stream
	// alone: what arrived, how the pipeline cut it, and how much of it
	// was new to the store.
	Bytes       int64
	Chunks      int64
	DupChunks   int64
	UniqueBytes int64
	// Wire measures the stream's transfer cost. On version ≥ 3
	// sessions the server computes and sends it; on legacy sessions
	// the client fills it (WireBytes == Bytes) so both modes report
	// through one struct.
	Wire WireStats
	// Store is the aggregate statistics of the shared store at the
	// moment the stream completed (all sessions, all streams so far).
	Store dedup.Stats
}

// DedupRatio returns this stream's logical-over-unique factor, 0 when
// the stream stored nothing new (fully duplicate).
func (s StreamStats) DedupRatio() float64 {
	if s.UniqueBytes == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.UniqueBytes)
}

// statsWireSize is the legacy (≤ v2) MsgStats payload; v3 sessions
// append the four WireStats fields. Legacy sessions must stay
// byte-identical, so the extension rides only on sessions that
// negotiated version 3.
const (
	statsWireSize   = 9 * 8
	statsWireSizeV3 = statsWireSize + 4*8
)

// encode serializes the stats for a MsgStats payload. version selects
// the layout: ≥ 3 appends the WireStats fields, anything lower is the
// legacy 72-byte payload.
func (s StreamStats) encode(version byte) []byte {
	fields := []int64{
		s.Bytes, s.Chunks, s.DupChunks, s.UniqueBytes,
		s.Store.LogicalBytes, s.Store.StoredBytes,
		s.Store.Chunks, s.Store.UniqueChunks, s.Store.IndexHits,
	}
	if version >= 3 {
		fields = append(fields,
			s.Wire.LogicalBytes, s.Wire.WireBytes,
			s.Wire.ChunksSent, s.Wire.ChunksSkipped)
	}
	out := make([]byte, 8*len(fields))
	for i, v := range fields {
		binary.BigEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

// decodeStreamStats parses a MsgStats payload of either layout.
func decodeStreamStats(p []byte) (StreamStats, error) {
	if len(p) != statsWireSize && len(p) != statsWireSizeV3 {
		return StreamStats{}, errors.New("ingest: malformed stats payload")
	}
	f := make([]int64, len(p)/8)
	for i := range f {
		f[i] = int64(binary.BigEndian.Uint64(p[i*8:]))
	}
	st := StreamStats{
		Bytes: f[0], Chunks: f[1], DupChunks: f[2], UniqueBytes: f[3],
		Store: dedup.Stats{
			LogicalBytes: f[4], StoredBytes: f[5],
			Chunks: f[6], UniqueChunks: f[7], IndexHits: f[8],
		},
	}
	if len(f) > 9 {
		st.Wire = WireStats{
			LogicalBytes: f[9], WireBytes: f[10],
			ChunksSent: f[11], ChunksSkipped: f[12],
		}
	}
	return st, nil
}

// encodeDeleteResult packs a MsgDeleteOK payload: the released,
// freed-entry and freed-byte counts as three uvarints.
func encodeDeleteResult(ds shardstore.DeleteStats) []byte {
	out := make([]byte, 0, 3*binary.MaxVarintLen64)
	out = binary.AppendUvarint(out, uint64(ds.ChunksReleased))
	out = binary.AppendUvarint(out, uint64(ds.ChunksFreed))
	out = binary.AppendUvarint(out, uint64(ds.BytesFreed))
	return out
}

// decodeDeleteResult parses a MsgDeleteOK payload. The counts are
// non-negative by construction, and trailing bytes are rejected so the
// framing stays canonical.
func decodeDeleteResult(p []byte) (shardstore.DeleteStats, error) {
	var u [3]uint64
	for i := range u {
		v, n := binary.Uvarint(p)
		if n <= 0 || v > math.MaxInt64 {
			return shardstore.DeleteStats{}, errors.New("ingest: malformed delete-result payload")
		}
		u[i] = v
		p = p[n:]
	}
	if len(p) != 0 {
		return shardstore.DeleteStats{}, errors.New("ingest: delete-result payload trailing bytes")
	}
	return shardstore.DeleteStats{
		ChunksReleased: int64(u[0]),
		ChunksFreed:    int64(u[1]),
		BytesFreed:     int64(u[2]),
	}, nil
}
