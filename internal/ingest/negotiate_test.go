package ingest

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/workload"
)

// TestNegotiateFastCDCRoundTrip is the negotiation happy path: a
// session that negotiates the FastCDC engine backs up, dedups and
// restores byte-exactly, end to end over the wire.
func TestNegotiateFastCDCRoundTrip(t *testing.T) {
	srv, err := NewServer(testConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	spec := chunk.FastCDCSpec(4 << 10)
	accepted, err := c.Negotiate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != spec {
		t.Fatalf("accepted spec %+v, want %+v", accepted, spec)
	}

	im := workload.NewImage(41, 4<<20, 64<<10, 0.1)
	st, err := c.BackupBytes("master", im.Master)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes != int64(len(im.Master)) || st.Chunks == 0 {
		t.Fatalf("master stats: %+v", st)
	}
	// The negotiated engine must actually be in force: chunk count has
	// to match the engine's own cut of the same bytes.
	eng, err := chunk.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(eng.Split(im.Master)); int(st.Chunks) != want {
		t.Fatalf("server cut %d chunks, fastcdc engine cuts %d", st.Chunks, want)
	}

	snap := im.Snapshot(42)
	st2, err := c.BackupBytes("snap", snap)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DupChunks == 0 || st2.DedupRatio() <= 1 {
		t.Fatalf("similar snapshot deduped nothing: %+v", st2)
	}
	for name, want := range map[string][]byte{"master": im.Master, "snap": snap} {
		if err := c.Verify(name, want); err != nil {
			t.Fatalf("verify %s: %v", name, err)
		}
	}
}

// TestLegacySessionMatchesNegotiatedDefault: a session that skips the
// Hello must behave identically to one that explicitly negotiates the
// server's default spec — the byte-for-byte compatibility guarantee
// for old clients.
func TestLegacySessionMatchesNegotiatedDefault(t *testing.T) {
	data := workload.Random(43, 3<<20)
	run := func(negotiate bool) StreamStats {
		srv, err := NewServer(testConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		c := startSession(t, srv)
		defer c.Close()
		if negotiate {
			if _, err := c.Negotiate(srv.cfg.Shredder.Chunking); err != nil {
				t.Fatal(err)
			}
		}
		st, err := c.BackupBytes("s", data)
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	legacy, negotiated := run(false), run(true)
	if legacy != negotiated {
		t.Fatalf("legacy session stats %+v differ from negotiated-default %+v", legacy, negotiated)
	}
}

// TestRenegotiationMidSession: a second Hello switches the engine for
// subsequent streams.
func TestRenegotiationMidSession(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	data := workload.Random(44, 2<<20)

	st1, err := c.BackupBytes("rabin-stream", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Negotiate(chunk.FastCDCSpec(4 << 10)); err != nil {
		t.Fatal(err)
	}
	st2, err := c.BackupBytes("fastcdc-stream", data)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Chunks == st2.Chunks {
		t.Fatalf("engine switch had no effect: %d chunks both times", st1.Chunks)
	}
	for _, name := range []string{"rabin-stream", "fastcdc-stream"} {
		if err := c.Verify(name, data); err != nil {
			t.Fatalf("verify %s: %v", name, err)
		}
	}
}

// rawSession opens a session and returns the raw client end plus the
// server's ServeConn error channel, for tests that need to speak
// malformed protocol.
func rawSession(t *testing.T, srv *Server) (net.Conn, *bufio.Reader, chan error) {
	t.Helper()
	cend, send := net.Pipe()
	errc := make(chan error, 1)
	go func() {
		defer send.Close()
		errc <- srv.ServeConn(send)
	}()
	t.Cleanup(func() { cend.Close() })
	return cend, bufio.NewReader(cend), errc
}

// TestNegotiateUnknownAlgoRejected: a Hello naming an algorithm id the
// server does not implement gets a typed rejection, and the server
// session ends with a NegotiationError rather than a parse panic.
func TestNegotiateUnknownAlgoRejected(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	conn, br, errc := rawSession(t, srv)
	payload := encodeHello(ProtocolVersion, chunk.DefaultSpec())
	payload[1] = 99 // corrupt the algo id inside the spec
	if err := writeFrame(conn, MsgHello, payload); err != nil {
		t.Fatal(err)
	}
	typ, reply, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError || !strings.Contains(string(reply), "unknown algorithm") {
		t.Fatalf("reply %d %q", typ, reply)
	}
	conn.Close()
	var ne *NegotiationError
	if serr := <-errc; !errors.As(serr, &ne) {
		t.Fatalf("server error = %v, want NegotiationError", serr)
	}
}

// TestNegotiateVersionMismatch: a newer protocol version is refused
// with a reason naming both versions.
func TestNegotiateVersionMismatch(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	conn, br, errc := rawSession(t, srv)
	if err := writeFrame(conn, MsgHello, encodeHello(99, chunk.DefaultSpec())); err != nil {
		t.Fatal(err)
	}
	typ, reply, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError || !strings.Contains(string(reply), "version 99") {
		t.Fatalf("reply %d %q", typ, reply)
	}
	conn.Close()
	var ne *NegotiationError
	if serr := <-errc; !errors.As(serr, &ne) {
		t.Fatalf("server error = %v, want NegotiationError", serr)
	}
}

// legacyServeConn mimics a pre-negotiation server (PR 2's ServeConn):
// any frame type it does not know draws a MsgError and closes the
// session. New clients must degrade to a typed error against it.
func legacyServeConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	typ, _, err := readFrame(br, nil)
	if err != nil {
		return
	}
	if typ != MsgBegin && typ != MsgRestore {
		_ = writeFrame(conn, MsgError, []byte("unexpected frame type "+string('0'+typ)))
	}
}

// TestNegotiateAgainstLegacyServer: a new client proposing a spec to
// an old server gets *NegotiationError, not a hang or a raw EOF.
func TestNegotiateAgainstLegacyServer(t *testing.T) {
	cend, send := net.Pipe()
	go legacyServeConn(send)
	c := NewSession(cend)
	defer c.Close()
	_, err := c.Negotiate(chunk.FastCDCSpec(4 << 10))
	var ne *NegotiationError
	if !errors.As(err, &ne) {
		t.Fatalf("Negotiate against legacy server = %v, want NegotiationError", err)
	}
}

// TestNegotiateOversizedMaxChunk: a spec whose chunks could exceed the
// frame limit is refused at negotiation time, not at restore time.
func TestNegotiateOversizedMaxChunk(t *testing.T) {
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	c := startSession(t, srv)
	spec := chunk.FastCDCSpec(16 << 20) // max = 64 MB > MaxFrame
	_, err = c.Negotiate(spec)
	var ne *NegotiationError
	if !errors.As(err, &ne) || !strings.Contains(ne.Reason, "frame limit") {
		t.Fatalf("Negotiate = %v, want frame-limit NegotiationError", err)
	}
}

// TestClientSpecValidationLocal: an invalid spec never reaches the
// wire — Negotiate fails locally.
func TestClientSpecValidationLocal(t *testing.T) {
	// A conn that explodes on use proves nothing was written.
	c := NewSession(deadConn{})
	bad := chunk.FastCDCSpec(4 << 10)
	bad.AvgSize = 4095
	if _, err := c.Negotiate(bad); err == nil {
		t.Fatal("invalid spec accepted client-side")
	}
}

// deadConn fails every operation.
type deadConn struct{ net.Conn }

func (deadConn) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
func (deadConn) Read([]byte) (int, error)  { return 0, io.ErrClosedPipe }
func (deadConn) Close() error              { return nil }
