package ingest

import "io"

// The exported frame codec, for tools that measure or speak the wire
// outside a Session or Frontend (the bench/ module replays it). Thin
// wrappers over the private implementations, so there is exactly one
// definition of the frame format in the tree.

// WriteFrame emits one frame: a 1-byte type, a 4-byte big-endian
// payload length, then the payload (bounded by MaxFrame).
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	return writeFrame(w, typ, payload)
}

// ReadFrame reads one frame, reusing buf for the payload when it is
// large enough. The returned slice aliases buf (or a fresh allocation)
// and is valid until the next call with the same buf. A clean close on
// a frame boundary returns bare io.EOF; every other failure is typed.
func ReadFrame(r io.Reader, buf []byte) (byte, []byte, error) {
	return readFrame(r, buf)
}
