package ingest

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"shredder/internal/obs"
)

// frameName maps a frame type byte to its metric label.
var frameName = map[byte]string{
	MsgBegin:      "begin",
	MsgData:       "data",
	MsgEnd:        "end",
	MsgStats:      "stats",
	MsgRestore:    "restore",
	MsgError:      "error",
	MsgHello:      "hello",
	MsgAccept:     "accept",
	MsgBeginDedup: "begin_dedup",
	MsgHasBatch:   "has_batch",
	MsgNeedBatch:  "need_batch",
	MsgCommit:     "commit",
	MsgDelete:     "delete",
	MsgDeleteOK:   "delete_ok",
}

// errorKinds are the protocol-error taxonomy labels, matching the
// typed errors in errors.go plus a catch-all.
var errorKinds = []string{
	"negotiation", "unexpected_frame", "truncated", "frame_size", "other",
}

// errorKind classifies a session error into its metric label.
func errorKind(err error) string {
	var ne *NegotiationError
	var ue *UnexpectedFrameError
	var te *TruncatedError
	var fe *FrameSizeError
	switch {
	case errors.As(err, &ne):
		return "negotiation"
	case errors.As(err, &ue):
		return "unexpected_frame"
	case errors.As(err, &te):
		return "truncated"
	case errors.As(err, &fe):
		return "frame_size"
	default:
		return "other"
	}
}

// serverMetrics holds the front end's pre-resolved metric handles (the
// store back end keeps its own two: ingest_chunks_pinned_total and
// ingest_commit_seconds). A nil *serverMetrics (no registry configured)
// makes every method a no-op, so the hot path pays one nil check per
// event and nothing else.
type serverMetrics struct {
	sessionsActive *obs.Gauge
	sessionsTotal  [ProtocolVersion + 1]*obs.Counter // by negotiated version; 0 = legacy raw
	frames         [MsgDeleteOK + 1]*obs.Counter     // by frame type
	protoErrors    map[string]*obs.Counter           // by errorKind
	logicalBytes   *obs.Counter
	wireBytes      *obs.Counter
	chunksSent     *obs.Counter
	chunksSkipped  *obs.Counter
	// stageNanos is where raw streams' time went, by FeedTimes field in
	// stageNames order; exported in seconds at scrape time.
	stageNanos [len(stageNames)]atomic.Int64
}

// stageNames label ingest_stage_seconds_total, in FeedTimes field order.
var stageNames = [...]string{"scan", "hash", "producer_stall", "store", "store_idle"}

// newServerMetrics registers the front end's metric families. Returns
// nil when reg is nil — the uninstrumented server.
func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	m := &serverMetrics{
		sessionsActive: reg.Gauge("ingest_sessions_active",
			"Client sessions currently being served."),
		protoErrors: make(map[string]*obs.Counter, len(errorKinds)),
		logicalBytes: reg.Counter("ingest_logical_bytes_total",
			"Logical stream bytes committed (every byte of every acknowledged stream)."),
		wireBytes: reg.Counter("ingest_wire_bytes_total",
			"Bytes that actually crossed the wire for committed streams (bodies plus fingerprint batches)."),
		chunksSent: reg.Counter("ingest_chunks_sent_total",
			"Chunk bodies uploaded for committed streams."),
		chunksSkipped: reg.Counter("ingest_chunks_skipped_total",
			"Chunks of committed streams resolved by fingerprint alone (no body on the wire)."),
	}
	for v := byte(0); v <= ProtocolVersion; v++ {
		// Version 0 is a session that never sent a Hello — protocol 1.
		label := fmt.Sprintf("%d", max(v, 1))
		m.sessionsTotal[v] = reg.Counter("ingest_sessions_total",
			"Sessions completed, by negotiated protocol version.", "protocol", label)
	}
	for typ, name := range frameName {
		m.frames[typ] = reg.Counter("ingest_frames_total",
			"Frames received from clients, by message type.", "type", name)
	}
	for _, kind := range errorKinds {
		m.protoErrors[kind] = reg.Counter("ingest_protocol_errors_total",
			"Sessions that died with an error, by protocol-error kind.", "kind", kind)
	}
	for i, stage := range stageNames {
		ns := &m.stageNanos[i]
		reg.CounterFunc("ingest_stage_seconds_total",
			"Time raw (server-chunked) streams spent per pipeline stage: scan, hash and producer_stall inside the chunking pipeline (hash summed over its workers), store and store_idle on the goroutine feeding the back end.",
			func() float64 { return float64(ns.Load()) / 1e9 }, "stage", stage)
	}
	return m
}

// stages accounts one raw stream's stage times.
func (m *serverMetrics) stages(ft FeedTimes) {
	if m == nil {
		return
	}
	for i, d := range [...]time.Duration{ft.Scan, ft.Hash, ft.Stall, ft.Store, ft.Idle} {
		m.stageNanos[i].Add(int64(d))
	}
}

// frame counts one received frame by type.
func (m *serverMetrics) frame(typ byte) {
	if m == nil {
		return
	}
	if int(typ) < len(m.frames) && m.frames[typ] != nil {
		m.frames[typ].Inc()
	}
}

// sessionStart/sessionEnd bracket one ServeConn call.
func (m *serverMetrics) sessionStart() {
	if m == nil {
		return
	}
	m.sessionsActive.Inc()
}

func (m *serverMetrics) sessionEnd(ver byte, err error) {
	if m == nil {
		return
	}
	m.sessionsActive.Dec()
	if int(ver) < len(m.sessionsTotal) {
		m.sessionsTotal[ver].Inc()
	}
	if err != nil {
		m.protoErrors[errorKind(err)].Inc()
	}
}

// streamCommitted accounts one acknowledged stream.
func (m *serverMetrics) streamCommitted(st StreamStats) {
	if m == nil {
		return
	}
	m.logicalBytes.Add(st.Bytes)
	m.wireBytes.Add(st.Wire.WireBytes)
	m.chunksSent.Add(st.Wire.ChunksSent)
	m.chunksSkipped.Add(st.Wire.ChunksSkipped)
}
