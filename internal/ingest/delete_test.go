package ingest

import (
	"errors"
	"strings"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/shardstore"
)

// TestDeleteRequiresV3: the client refuses locally below v3, and a
// hand-rolled MsgDelete on a legacy session is a protocol violation
// the server answers with a typed error.
func TestDeleteRequiresV3(t *testing.T) {
	c := NewSession(deadConn{})
	if _, err := c.Delete("x"); !errors.Is(err, ErrDeleteUnsupported) {
		t.Fatalf("Delete without negotiation = %v, want ErrDeleteUnsupported", err)
	}
	srv, err := NewServer(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	c2 := startSession(t, srv)
	if _, err := c2.Negotiate(chunk.FastCDCSpec(4 << 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Delete("x"); !errors.Is(err, ErrDeleteUnsupported) {
		t.Fatalf("Delete on v2 session = %v, want ErrDeleteUnsupported", err)
	}

	conn, br, errc := rawSession(t, srv)
	if err := writeFrame(conn, MsgDelete, []byte("sneak")); err != nil {
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

// TestDeleteResultCodecValidation exercises the decoder's rejection
// paths alongside a round-trip.
func TestDeleteResultCodecValidation(t *testing.T) {
	in := shardstore.DeleteStats{ChunksReleased: 12345, ChunksFreed: 17, BytesFreed: 1 << 40}
	ds, err := decodeDeleteResult(encodeDeleteResult(in))
	if err != nil || ds != in {
		t.Fatalf("round trip %+v, %v", ds, err)
	}
	if _, err := decodeDeleteResult(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := decodeDeleteResult([]byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, err := decodeDeleteResult(append(encodeDeleteResult(in), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
