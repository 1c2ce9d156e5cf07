package chunk

import (
	"shredder/internal/chunker"
	"shredder/internal/rabin"
)

// DefaultSpec returns the protocol-default configuration: the paper's
// Rabin setup (48-byte window, 13-bit mask, no min/max). Sessions that
// skip negotiation get exactly this.
func DefaultSpec() Spec {
	p := chunker.DefaultParams()
	return RabinSpec(p)
}

// RabinSpec lifts sequential-chunker parameters into a Spec, so
// Rabin-centric callers (the GPU case studies) can feed the engine API
// without re-stating their configuration.
func RabinSpec(p chunker.Params) Spec {
	return Spec{
		Algo:       AlgoRabin,
		Window:     p.Window,
		Polynomial: uint64(p.Polynomial),
		MaskBits:   p.MaskBits,
		Marker:     p.Marker,
		MinSize:    p.MinSize,
		MaxSize:    p.MaxSize,
	}
}

// RabinParams materializes the chunker configuration a Rabin Spec
// describes, applying the default polynomial when unset.
func (s Spec) RabinParams() chunker.Params {
	poly := rabin.Poly(s.Polynomial)
	if poly == 0 {
		poly = rabin.DefaultPolynomial
	}
	return chunker.Params{
		Window:     s.Window,
		Polynomial: poly,
		MaskBits:   s.MaskBits,
		Marker:     s.Marker,
		MinSize:    s.MinSize,
		MaxSize:    s.MaxSize,
	}
}

// Rabin is Rabin-fingerprint CDC with the parameters, fingerprint table
// and boundary test of the sequential reference (package chunker),
// which the differential tests hold it to; the scan itself is
// scanRegion and the min/max policy is resolve. It is the only engine
// the GPU pipeline can offload: core type-asserts for it and shares its
// fingerprint table with the kernel.
type Rabin struct {
	spec Spec
	chk  *chunker.Chunker
}

var _ Engine = (*Rabin)(nil)

func newRabin(s Spec) (*Rabin, error) {
	chk, err := chunker.New(s.RabinParams())
	if err != nil {
		return nil, err
	}
	return &Rabin{spec: s, chk: chk}, nil
}

// Spec returns the configuration the engine was built from.
func (r *Rabin) Spec() Spec { return r.spec }

// Chunker exposes the reference chunker the engine takes its table and
// boundary test from, so cooperating implementations (the GPU kernel)
// share the exact same fingerprint arithmetic.
func (r *Rabin) Chunker() *chunker.Chunker { return r.chk }

// Split cuts data into chunks. The concatenation of the returned
// chunks always reproduces data exactly.
func (r *Rabin) Split(data []byte) []Chunk { return split(r.Scanner(), data) }

// Scanner returns the state to cut one stream in place.
func (r *Rabin) Scanner() Scanner { return &candScanner{rs: r} }

// Stream returns an incremental Rabin feed.
func (r *Rabin) Stream(emit EmitFunc) Stream { return newStream(r.Scanner(), emit) }
