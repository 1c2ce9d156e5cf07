package chunk

import (
	"errors"
	"fmt"
	"math/bits"
)

// FastCDC limits: the mask construction needs a few bits of headroom on
// both sides of the 64-bit gear hash, and chunks below ~64 bytes defeat
// the point of content-defined boundaries.
const (
	fastcdcMinAvg = 256
	fastcdcMaxAvg = 1 << 26
	fastcdcMinMin = 64
	fastcdcMaxMax = 1 << 30
	maxNormalize  = 3
)

// FastCDCSpec returns a FastCDC Spec with the conventional derived
// bounds: min = avg/4, max = avg*4, normalization level 2.
func FastCDCSpec(avgSize int) Spec {
	return Spec{
		Algo:          AlgoFastCDC,
		AvgSize:       avgSize,
		MinSize:       avgSize / 4,
		MaxSize:       avgSize * 4,
		Normalization: 2,
	}
}

func validateFastCDC(s Spec) error {
	if s.AvgSize < fastcdcMinAvg || s.AvgSize > fastcdcMaxAvg {
		return fmt.Errorf("chunk: fastcdc avg size %d outside [%d, %d]", s.AvgSize, fastcdcMinAvg, fastcdcMaxAvg)
	}
	if s.AvgSize&(s.AvgSize-1) != 0 {
		return fmt.Errorf("chunk: fastcdc avg size %d is not a power of two", s.AvgSize)
	}
	if s.MinSize < fastcdcMinMin {
		return fmt.Errorf("chunk: fastcdc min size %d below %d", s.MinSize, fastcdcMinMin)
	}
	if s.MaxSize > fastcdcMaxMax {
		return fmt.Errorf("chunk: fastcdc max size %d above %d", s.MaxSize, fastcdcMaxMax)
	}
	if s.MinSize > s.AvgSize || s.AvgSize > s.MaxSize {
		return fmt.Errorf("chunk: fastcdc sizes must satisfy min %d <= avg %d <= max %d",
			s.MinSize, s.AvgSize, s.MaxSize)
	}
	if s.MinSize == s.MaxSize {
		return errors.New("chunk: fastcdc min size equals max size")
	}
	if s.Normalization < 0 || s.Normalization > maxNormalize {
		return fmt.Errorf("chunk: fastcdc normalization %d outside [0, %d]", s.Normalization, maxNormalize)
	}
	return nil
}

// FastCDC is a gear-hash content-defined chunker with normalized
// chunking: below the target size the boundary test uses a stricter
// mask (log2(avg)+normalization bits), past it a looser one
// (log2(avg)-normalization bits), concentrating the size distribution
// around the target. Bytes before MinSize are skipped entirely — the
// sub-minimum cut-point skip that, together with the one-add rolling
// hash, makes FastCDC several times faster per byte than the Rabin
// sliding window.
type FastCDC struct {
	spec          Spec
	min, avg, max int
	maskS, maskL  uint64
	gear          [256]uint64
}

var _ Engine = (*FastCDC)(nil)

func newFastCDC(s Spec) (*FastCDC, error) {
	log2 := bits.TrailingZeros(uint(s.AvgSize))
	e := &FastCDC{
		spec:  s,
		min:   s.MinSize,
		avg:   s.AvgSize,
		max:   s.MaxSize,
		maskS: highMask(log2 + s.Normalization),
		maskL: highMask(log2 - s.Normalization),
		gear:  gearTable(s.Seed),
	}
	return e, nil
}

// highMask selects the n high-order bits of the gear hash. The gear
// update (fp = fp<<1 + gear[b]) accumulates its entropy toward the top
// of the word, so that is where the boundary test must look.
func highMask(n int) uint64 {
	return ^uint64(0) << (64 - n)
}

// gearTable derives the 256-entry gear table from seed with the
// splitmix64 generator: fully deterministic, so every party using the
// same Seed cuts identical boundaries; seed 0 is the canonical shared
// table.
func gearTable(seed uint64) [256]uint64 {
	const golden = 0x9E3779B97F4A7C15
	var t [256]uint64
	x := seed
	for i := range t {
		x += golden
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		t[i] = z ^ (z >> 31)
	}
	return t
}

// Spec returns the configuration the engine was built from.
func (e *FastCDC) Spec() Spec { return e.spec }

// cut returns the length of the first chunk of data, assuming data
// begins at a chunk boundary, plus the gear hash at a content-defined
// boundary. It is a pure function of data[:min(len(data), MaxSize)],
// which is what makes a scan in pieces agree with a scan of the whole:
// cutScanner only cuts once MaxSize bytes lie past the cursor (so the
// view cannot grow) or the stream has ended (so it cannot either).
func (e *FastCDC) cut(data []byte) (n int, fp uint64, forced bool) {
	if len(data) <= e.min {
		return len(data), 0, true
	}
	limit := len(data)
	if limit > e.max {
		limit = e.max
	}
	normal := e.avg
	if normal > limit {
		normal = limit
	}
	i := e.min
	for ; i < normal; i++ {
		fp = fp<<1 + e.gear[data[i]]
		if fp&e.maskS == 0 {
			return i + 1, fp, false
		}
	}
	for ; i < limit; i++ {
		fp = fp<<1 + e.gear[data[i]]
		if fp&e.maskL == 0 {
			return i + 1, fp, false
		}
	}
	return limit, 0, true
}

// Split cuts data into chunks. The concatenation of the returned
// chunks always reproduces data exactly.
func (e *FastCDC) Split(data []byte) []Chunk { return split(e.Scanner(), data) }

// Stream returns an incremental FastCDC feed.
func (e *FastCDC) Stream(emit EmitFunc) Stream { return newStream(e.Scanner(), emit) }

// cutScanner is FastCDC's sequential Scanner, the min-skipping cut loop
// (cutting from candidates, which Parallel does, has to hash the bytes
// cut skips and runs at about half its speed). cut restarts its hash at
// every chunk start, so the cursor is all the state and no byte before
// it is needed.
type cutScanner struct {
	e   *FastCDC
	cut int64 // stream offset of the first byte not yet in an emitted chunk
}

// Scanner returns the state to cut one stream in place.
func (e *FastCDC) Scanner() Scanner { return &cutScanner{e: e} }

func (s *cutScanner) Overlap() int { return 0 }

func (s *cutScanner) quantum() int { return 0 } // a Scan with nothing to cut costs nothing

func (s *cutScanner) Scan(view []byte, base int64, final bool, emit func(Chunk) error) error {
	if base > s.cut || base+int64(len(view)) < s.cut {
		return errScanView
	}
	rest := view[s.cut-base:]
	for len(rest) >= s.e.max || (final && len(rest) > 0) {
		n, fp, forced := s.e.cut(rest)
		if err := emit(Chunk{Offset: s.cut, Length: int64(n), Fingerprint: fp, Forced: forced}); err != nil {
			return err
		}
		s.cut += int64(n)
		rest = rest[n:]
	}
	return nil
}
