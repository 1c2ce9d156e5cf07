// Package chunk defines the algorithm-agnostic chunking-engine API.
//
// The paper's premise is that content-defined chunking is the hot path
// of incremental storage; which *algorithm* cuts the boundaries is an
// implementation choice, not an architectural one. This package makes
// the algorithm a value: a serializable Spec names an algorithm and its
// parameters, New turns a Spec into an Engine, and everything above the
// engine (the core pipeline, the ingest service, the daemons) is typed
// on Engine/Spec alone. Two engines are provided:
//
//   - AlgoRabin is Rabin-fingerprint CDC over a sliding window (the
//     paper's algorithm, GPU-offloadable), with the parameters and the
//     fingerprint table of the sequential reference in package chunker,
//     which its tests hold it to; and
//   - AlgoFastCDC implements FastCDC-style gear hashing with
//     normalized chunking (small/large masks around the target size),
//     which trades the sliding window's per-byte table lookups for a
//     single gear addition and is the fast CPU-side choice.
//
// An engine cuts through one primitive, its Scanner: per-stream state
// that holds a cursor and never the bytes, and cuts a buffer the caller
// owns where it lies. Split is one Scan over the whole input, Stream is
// a buffer in front of a Scanner for callers that have none of their
// own, and Parallel is the same primitive with a fan-out over regions
// in front.
//
// Spec has a fixed-size wire encoding so the ingest protocol can carry
// it in a session-negotiation frame; see EncodeSpec/DecodeSpec.
package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Algo identifies a chunking algorithm on the wire. The zero value is
// invalid so an uninitialized Spec cannot masquerade as a real one.
type Algo uint8

const (
	// AlgoRabin is Rabin-fingerprint CDC over a sliding window — the
	// paper's algorithm and the protocol default.
	AlgoRabin Algo = 1
	// AlgoFastCDC is gear-hash CDC with normalized chunking.
	AlgoFastCDC Algo = 2
)

func (a Algo) String() string {
	switch a {
	case AlgoRabin:
		return "rabin"
	case AlgoFastCDC:
		return "fastcdc"
	default:
		return fmt.Sprintf("Algo(%d)", uint8(a))
	}
}

// ParseAlgo maps a flag/config string to an Algo.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "rabin":
		return AlgoRabin, nil
	case "fastcdc":
		return AlgoFastCDC, nil
	default:
		return 0, fmt.Errorf("chunk: unknown algorithm %q (want rabin or fastcdc)", s)
	}
}

// UnknownAlgoError reports an algorithm id this build does not
// implement — the typed rejection a server hands a newer client.
type UnknownAlgoError struct {
	Algo Algo
}

func (e *UnknownAlgoError) Error() string {
	return fmt.Sprintf("chunk: unknown algorithm id %d", uint8(e.Algo))
}

// Spec is a complete, serializable description of a chunking
// configuration. Fields beyond Algo are interpreted per algorithm;
// unused fields must be zero so encodings are canonical.
type Spec struct {
	// Algo selects the algorithm.
	Algo Algo

	// MinSize and MaxSize bound chunk lengths in bytes and apply to
	// every algorithm. For Rabin, 0 means unbounded (the paper's
	// configuration). FastCDC requires both.
	MinSize int
	MaxSize int

	// Window, Polynomial, MaskBits and Marker configure AlgoRabin:
	// sliding-window size, the irreducible modulus (0 means the
	// package default), how many low-order fingerprint bits join the
	// boundary test, and the value they must equal.
	Window     int
	Polynomial uint64
	MaskBits   int
	Marker     uint64

	// AvgSize, Normalization and Seed configure AlgoFastCDC: the
	// power-of-two target chunk size, the normalized-chunking level
	// (0..3: ± that many mask bits around the target), and the gear
	// table seed (0 is the canonical shared table; any other value
	// derives a private table, defeating chunk-size fingerprinting).
	AvgSize       int
	Normalization int
	Seed          uint64
}

// Validate checks the Spec for consistency.
func (s Spec) Validate() error {
	switch s.Algo {
	case AlgoRabin:
		if s.AvgSize != 0 || s.Normalization != 0 || s.Seed != 0 {
			return errors.New("chunk: rabin spec sets fastcdc fields")
		}
		return s.RabinParams().Validate()
	case AlgoFastCDC:
		if s.Window != 0 || s.Polynomial != 0 || s.MaskBits != 0 || s.Marker != 0 {
			return errors.New("chunk: fastcdc spec sets rabin fields")
		}
		return validateFastCDC(s)
	default:
		return &UnknownAlgoError{Algo: s.Algo}
	}
}

// SpecFromSizes maps what a command line gives — an algorithm name and
// byte sizes — to a validated Spec. avg is the target chunk size, a power
// of two; min and max are the chunk-size bounds, 0 meaning the
// algorithm's derived default (FastCDC avg/4 and avg*4; Rabin avg/2 and
// avg*8 over the paper's window and polynomial).
func SpecFromSizes(algoName string, avg, min, max int) (Spec, error) {
	algo, err := ParseAlgo(algoName)
	if err != nil {
		return Spec{}, err
	}
	if avg < 2 || avg&(avg-1) != 0 {
		return Spec{}, fmt.Errorf("average chunk size %d is not a power of two", avg)
	}
	var spec Spec
	if algo == AlgoFastCDC {
		spec = FastCDCSpec(avg)
	} else {
		spec = DefaultSpec()
		spec.MaskBits = bits.Len(uint(avg)) - 1 // expected chunk size 2^mask
		spec.Marker = 1<<uint(spec.MaskBits) - 1
		spec.MinSize, spec.MaxSize = avg/2, avg*8
	}
	if min != 0 {
		spec.MinSize = min
	}
	if max != 0 {
		spec.MaxSize = max
	}
	return spec, spec.Validate()
}

// specWireSize is the fixed encoded size of a Spec.
const specWireSize = 1 + 4*6 + 8*3

// EncodeSpec serializes s into its fixed 49-byte wire form.
func EncodeSpec(s Spec) []byte {
	out := make([]byte, specWireSize)
	out[0] = byte(s.Algo)
	for i, v := range []int{s.MinSize, s.MaxSize, s.Window, s.MaskBits, s.AvgSize, s.Normalization} {
		binary.BigEndian.PutUint32(out[1+4*i:], uint32(v))
	}
	for i, v := range []uint64{s.Polynomial, s.Marker, s.Seed} {
		binary.BigEndian.PutUint64(out[25+8*i:], v)
	}
	return out
}

// DecodeSpec parses a wire-encoded Spec and validates it.
func DecodeSpec(p []byte) (Spec, error) {
	if len(p) != specWireSize {
		return Spec{}, fmt.Errorf("chunk: spec payload is %d bytes, want %d", len(p), specWireSize)
	}
	u32 := func(i int) int { return int(int32(binary.BigEndian.Uint32(p[1+4*i:]))) }
	s := Spec{
		Algo:          Algo(p[0]),
		MinSize:       u32(0),
		MaxSize:       u32(1),
		Window:        u32(2),
		MaskBits:      u32(3),
		AvgSize:       u32(4),
		Normalization: u32(5),
		Polynomial:    binary.BigEndian.Uint64(p[25:]),
		Marker:        binary.BigEndian.Uint64(p[33:]),
		Seed:          binary.BigEndian.Uint64(p[41:]),
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Chunk describes one chunk of a stream, independent of the algorithm
// that cut it.
type Chunk struct {
	// Offset is the chunk's starting byte offset in the stream.
	Offset int64
	// Length is the chunk length in bytes.
	Length int64
	// Fingerprint is the algorithm's rolling-hash value at the
	// boundary, or 0 when the boundary was forced.
	Fingerprint uint64
	// Forced reports whether the boundary came from a size limit or
	// end of stream rather than content.
	Forced bool
}

// End returns the exclusive end offset of the chunk.
func (c Chunk) End() int64 { return c.Offset + c.Length }

// EmitFunc receives each chunk as it is cut, together with its bytes.
// The data slice is only valid for the duration of the call.
type EmitFunc func(c Chunk, data []byte) error

// Stream is an engine's incremental feed for callers that hand bytes
// over piecemeal: write stream bytes in any split, Close flushes the
// final partial chunk. A Stream produces exactly the chunks
// Engine.Split produces over the concatenation of all writes; it keeps
// a copy of the bytes not yet cut, which a caller that holds the stream
// in buffers of its own avoids by driving a Scanner directly.
//
// An error from the EmitFunc ends the stream: the Write that ran into
// it returns the error with n counting only those bytes of p that lie
// in chunks emit accepted — always fewer than len(p) — and every later
// Write and Close returns the same error. A Write after Close fails;
// Close is idempotent.
type Stream interface {
	io.WriteCloser
	// Offset returns the absolute stream offset of the next byte to be
	// written.
	Offset() int64
}

// Scanner is an engine's cutting state for one stream: a cursor and,
// for engines that cut from candidate boundaries, the candidates past
// it — never the stream's bytes, which stay where the caller has them.
// A Scanner is for one stream and one goroutine.
type Scanner interface {
	// Overlap is how many bytes before the first un-cut one (the end of
	// the last chunk Scan emitted) the next view must still hold: the
	// context the engine's rolling hash needs to pick up where it
	// stopped.
	Overlap() int
	// Scan cuts view, which holds the stream's bytes from offset base
	// on, and calls emit, in stream order, for every chunk that later
	// bytes cannot change — for every chunk left when final says view
	// ends the stream. Each call's view ends where the last one's did or
	// later, and begins at the stream's start or no later than Overlap
	// bytes before the first un-cut byte; what lies before that the
	// caller may drop or overwrite between calls. No byte is scanned
	// twice, however the stream is split over calls. An error from emit
	// ends the scan and is returned as it is; the Scanner is of no use
	// afterwards.
	Scan(view []byte, base int64, final bool, emit func(Chunk) error) error

	// quantum is how many new bytes make a scan worth starting: what a
	// Stream lets accumulate between scans.
	quantum() int
}

// Engine cuts byte streams into content-defined chunks. Engines are
// stateless between calls and safe for concurrent use; per-stream
// state lives in the Scanner or Stream.
type Engine interface {
	// Spec returns the configuration the engine was built from.
	Spec() Spec
	// Split cuts an in-memory buffer. The concatenation of the
	// returned chunks always reproduces data exactly.
	Split(data []byte) []Chunk
	// Scanner returns the state to cut one stream in place.
	Scanner() Scanner
	// Stream returns an incremental feed delivering chunks to emit.
	Stream(emit EmitFunc) Stream
}

// New builds the Engine a Spec describes.
func New(s Spec) (Engine, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Algo {
	case AlgoRabin:
		return newRabin(s)
	case AlgoFastCDC:
		return newFastCDC(s)
	default:
		return nil, &UnknownAlgoError{Algo: s.Algo}
	}
}

// SplitReader chunks everything from r using e, returning the chunks
// and total bytes read. Chunk bytes are delivered through emit; pass
// nil to collect boundaries only.
func SplitReader(e Engine, r io.Reader, emit EmitFunc) ([]Chunk, int64, error) {
	var chunks []Chunk
	s := e.Stream(func(c Chunk, data []byte) error {
		chunks = append(chunks, c)
		if emit != nil {
			return emit(c, data)
		}
		return nil
	})
	n, err := io.Copy(s, r)
	if err != nil {
		return chunks, n, err
	}
	if err := s.Close(); err != nil {
		return chunks, n, err
	}
	return chunks, n, nil
}
