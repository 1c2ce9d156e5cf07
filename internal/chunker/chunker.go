// Package chunker implements content-defined chunking (CDC) using Rabin
// fingerprints over a sliding window, as described in LBFS and used by
// Shredder (FAST 2012). A chunk boundary is declared wherever the
// low-order MaskBits bits of the window fingerprint equal a predefined
// marker; optional minimum and maximum chunk sizes bound the result.
//
// This package is the sequential reference implementation: the Rabin
// engine the service runs (package chunk), its parallel form
// (chunk.Parallel) and the GPU chunking kernel (package gpu) are
// required to produce byte-identical boundaries, and their tests assert
// that against this package's Split.
//
// Code above the algorithm — the core pipeline, the ingest service —
// should not use this package directly: package chunk defines the
// algorithm-agnostic engine API, and its Rabin engine takes its
// parameters, fingerprint table and boundary test from here
// (chunk.RabinSpec lifts a Params into a chunk.Spec).
package chunker

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"shredder/internal/rabin"
)

// Defaults mirror the configuration in the paper (§3.1): a 48-byte
// window and a 13-bit marker comparison.
const (
	DefaultWindow   = 48
	DefaultMaskBits = 13
)

// Params configures a Chunker. The zero value is not valid; use
// DefaultParams or fill in every field.
type Params struct {
	// Window is the sliding-window size in bytes.
	Window int
	// Polynomial is the irreducible modulus for Rabin fingerprinting.
	Polynomial rabin.Poly
	// MaskBits selects how many low-order fingerprint bits participate
	// in the boundary test; the expected chunk size is 2^MaskBits bytes
	// (geometric, before min/max clamping).
	MaskBits int
	// Marker is the value the masked fingerprint must equal at a
	// boundary. It must fit in MaskBits bits.
	Marker uint64
	// MinSize, when > 0, is the minimum chunk length in bytes; content
	// boundaries closer than MinSize to the chunk start are ignored.
	MinSize int
	// MaxSize, when > 0, forces a boundary after MaxSize bytes.
	MaxSize int
}

// DefaultParams returns the paper's configuration: 48-byte window,
// 13-bit mask, no min/max (the paper uses min = 0, max = ∞ except in
// the backup case study).
func DefaultParams() Params {
	return Params{
		Window:     DefaultWindow,
		Polynomial: rabin.DefaultPolynomial,
		MaskBits:   DefaultMaskBits,
		Marker:     1<<DefaultMaskBits - 1,
	}
}

// Validate checks p for consistency.
func (p Params) Validate() error {
	if p.Window < 2 {
		return errors.New("chunker: window must be at least 2 bytes")
	}
	if d := p.Polynomial.Degree(); d < 9 || d > 62 {
		return fmt.Errorf("chunker: polynomial degree %d outside [9, 62]", d)
	}
	if p.MaskBits < 1 || p.MaskBits >= p.Polynomial.Degree() {
		return fmt.Errorf("chunker: mask bits %d outside [1, poly degree)", p.MaskBits)
	}
	if p.Marker >= 1<<uint(p.MaskBits) {
		return fmt.Errorf("chunker: marker %#x does not fit in %d bits", p.Marker, p.MaskBits)
	}
	if p.MinSize < 0 || p.MaxSize < 0 {
		return errors.New("chunker: negative min/max size")
	}
	if p.MaxSize > 0 && p.MinSize >= p.MaxSize {
		return fmt.Errorf("chunker: min size %d >= max size %d", p.MinSize, p.MaxSize)
	}
	if p.MaxSize > 0 && p.MaxSize < p.Window {
		return fmt.Errorf("chunker: max size %d smaller than window %d", p.MaxSize, p.Window)
	}
	return nil
}

// Chunk describes one chunk of the input stream.
type Chunk struct {
	// Offset is the chunk's starting byte offset in the stream.
	Offset int64
	// Length is the chunk length in bytes.
	Length int64
	// Cut is the window fingerprint that triggered the boundary, or 0
	// when the boundary was forced (max size or end of stream).
	Cut rabin.Poly
	// Forced reports whether the boundary was forced rather than
	// content-defined.
	Forced bool
}

// End returns the exclusive end offset of the chunk.
func (c Chunk) End() int64 { return c.Offset + c.Length }

// Sum returns the SHA-256 digest of the chunk's content, given the
// full stream the chunk was cut from.
func (c Chunk) Sum(stream []byte) [sha256.Size]byte {
	return sha256.Sum256(stream[c.Offset:c.End()])
}

// Chunker cuts byte streams into content-defined chunks. It is
// stateless between calls and safe for concurrent use.
type Chunker struct {
	params Params
	table  *rabin.Table
	mask   rabin.Poly
	marker rabin.Poly
}

// New returns a Chunker for the given parameters.
func New(p Params) (*Chunker, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Chunker{
		params: p,
		table:  rabin.NewTable(p.Polynomial, p.Window),
		mask:   1<<uint(p.MaskBits) - 1,
		marker: rabin.Poly(p.Marker),
	}, nil
}

// Params returns the configuration the Chunker was built with.
func (c *Chunker) Params() Params { return c.params }

// Table exposes the fingerprint table so cooperating implementations
// (parallel and GPU chunkers) share the exact same arithmetic.
func (c *Chunker) Table() *rabin.Table { return c.table }

// IsBoundary reports whether a window fingerprint marks a chunk
// boundary.
func (c *Chunker) IsBoundary(fp rabin.Poly) bool {
	return fp&c.mask == c.marker
}

// Boundaries returns every raw content-defined boundary in data,
// ignoring min/max limits: each element is the exclusive end offset of
// a chunk, i.e. a marker match at byte i yields boundary i+1. The final
// end-of-data boundary is not included. This is the quantity the GPU
// kernel computes; limits are applied afterwards by ApplyLimits,
// exactly like the paper's Store thread (§3.1).
func (c *Chunker) Boundaries(data []byte) []int64 {
	var cuts []int64
	w := rabin.NewWindow(c.table)
	for i, b := range data {
		fp := w.Slide(b)
		if w.Full() && c.IsBoundary(fp) {
			cuts = append(cuts, int64(i)+1)
		}
	}
	return cuts
}

// ApplyLimits converts raw boundaries into final chunks over a stream
// of the given total length, enforcing MinSize/MaxSize and cutting the
// stream tail. Raw boundaries must be ascending, positive and at most
// total. fps, when non-nil, carries the fingerprint at each raw
// boundary for annotation and must be the same length as raw.
func (c *Chunker) ApplyLimits(raw []int64, fps []rabin.Poly, total int64) []Chunk {
	min := int64(c.params.MinSize)
	max := int64(c.params.MaxSize)
	if min == 0 {
		min = 1 // a boundary can never produce an empty chunk
	}
	var chunks []Chunk
	start := int64(0)
	cut := func(end int64, fp rabin.Poly, forced bool) {
		chunks = append(chunks, Chunk{Offset: start, Length: end - start, Cut: fp, Forced: forced})
		start = end
	}
	for i, b := range raw {
		if max > 0 {
			for b-start > max {
				cut(start+max, 0, true)
			}
		}
		if b-start >= min {
			var fp rabin.Poly
			if fps != nil {
				fp = fps[i]
			}
			cut(b, fp, false)
		}
	}
	if max > 0 {
		for total-start > max {
			cut(start+max, 0, true)
		}
	}
	if total > start {
		cut(total, 0, true)
	}
	return chunks
}

// Split cuts data into chunks, honoring min/max sizes. The
// concatenation of the returned chunks always reproduces data exactly.
func (c *Chunker) Split(data []byte) []Chunk {
	var chunks []Chunk
	w := rabin.NewWindow(c.table)
	min := int64(c.params.MinSize)
	if min == 0 {
		min = 1
	}
	max := int64(c.params.MaxSize)
	start := int64(0)
	for i, b := range data {
		fp := w.Slide(b)
		end := int64(i) + 1
		if w.Full() && c.IsBoundary(fp) && end-start >= min {
			chunks = append(chunks, Chunk{Offset: start, Length: end - start, Cut: fp})
			start = end
			continue
		}
		if max > 0 && end-start == max {
			chunks = append(chunks, Chunk{Offset: start, Length: max, Forced: true})
			start = end
		}
	}
	if total := int64(len(data)); total > start {
		chunks = append(chunks, Chunk{Offset: start, Length: total - start, Forced: true})
	}
	return chunks
}
