package chunk

import (
	"errors"
)

// errScanView reports a view that does not continue the stream the
// Scanner has been cutting.
var errScanView = errors.New("chunk: scan view does not continue the stream")

// split cuts a whole buffer with a fresh Scanner.
func split(sc Scanner, data []byte) []Chunk {
	var out []Chunk
	// A view that is the whole stream always continues it, and this emit
	// never fails.
	_ = sc.Scan(data, 0, true, func(c Chunk) error {
		out = append(out, c)
		return nil
	})
	return out
}

// candScanner is the Scanner of every engine that cuts from candidates
// (regionScanner): it extends the candidate list over the bytes a view
// adds — on p's workers when there is a p and enough of them — and
// replays the engine's policy from the cursor. A replayed chunk is
// final unless it is the last one: only that chunk's end may sit at the
// view's end rather than at a real cut, so everything before it is what
// a scan of the whole stream cuts.
type candScanner struct {
	rs regionScanner
	p  *Parallel // nil: scan on the caller's goroutine only

	cut   int64       // stream offset of the first byte not yet in an emitted chunk
	seen  int64       // stream offset the candidates cover
	base  int64       // stream offset the candidates' positions are relative to
	cands []candidate // ascending, past cut
}

func (s *candScanner) Overlap() int { return s.rs.overlap() }

func (s *candScanner) quantum() int {
	if s.p != nil {
		return s.p.segmentSize()
	}
	// A scan warms its rolling hash on Overlap bytes first; one started
	// for every few bytes a caller writes would spend its time there.
	return 64 * (s.rs.overlap() + 1)
}

func (s *candScanner) Scan(view []byte, base int64, final bool, emit func(Chunk) error) error {
	end := base + int64(len(view))
	if base > max(s.cut-int64(s.rs.overlap()), 0) || end < s.seen {
		return errScanView
	}
	if d := base - s.base; d != 0 {
		for i := range s.cands {
			s.cands[i].pos -= d
		}
		s.base = base
	}
	if lo := int(s.seen - base); lo < len(view) {
		if cands, ok := s.p.parallelScan(view, lo); ok {
			s.cands = append(s.cands, cands...)
		} else {
			s.rs.scanRegion(view, lo, len(view), func(c candidate) { s.cands = append(s.cands, c) })
		}
		s.seen = end
	}
	chunks := s.rs.resolve(view, int(s.cut-base), s.cands)
	if !final && len(chunks) > 0 {
		chunks = chunks[:len(chunks)-1]
	}
	for _, c := range chunks {
		c.Offset += base
		if err := emit(c); err != nil {
			return err
		}
		s.cut = c.End()
	}
	// Candidates at or before the cursor are spent: resolve skips them.
	spent := 0
	for spent < len(s.cands) && s.cands[spent].pos <= s.cut-base {
		spent++
	}
	s.cands = s.cands[:copy(s.cands, s.cands[spent:])]
	return nil
}

// stream is the one Stream: the un-cut tail of what was written, and a
// Scanner over it.
type stream struct {
	sc     Scanner
	accept func(Chunk) error // hands a chunk sc cut to the EmitFunc, with its bytes

	buf     []byte
	base    int64 // stream offset of buf[0]
	cut     int64 // stream offset of the first byte not yet emitted
	scanned int   // len(buf) when sc last saw it
	closed  bool
	err     error
}

func newStream(sc Scanner, emit EmitFunc) Stream {
	s := &stream{sc: sc}
	// One closure per stream, not per scan: a caller may write a byte at
	// a time.
	s.accept = func(c Chunk) error {
		if err := emit(c, s.buf[c.Offset-s.base:c.End()-s.base]); err != nil {
			return err
		}
		s.cut = c.End()
		return nil
	}
	return s
}

func (s *stream) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.closed {
		return 0, errors.New("chunk: write after Close")
	}
	start := s.Offset()
	s.buf = append(s.buf, p...)
	if len(s.buf)-s.scanned < s.sc.quantum() {
		return len(p), nil
	}
	if err := s.scan(false); err != nil {
		return int(max(s.cut-start, 0)), err
	}
	return len(p), nil
}

// scan cuts what is buffered and drops the bytes the Scanner is done
// with.
func (s *stream) scan(final bool) error {
	s.err = s.sc.Scan(s.buf, s.base, final, s.accept)
	if drop := int(s.cut-s.base) - s.sc.Overlap(); drop > 0 {
		s.buf = s.buf[:copy(s.buf, s.buf[drop:])]
		s.base += int64(drop)
	}
	s.scanned = len(s.buf)
	return s.err
}

// Close cuts the buffered tail. It is idempotent.
func (s *stream) Close() error {
	if s.err != nil || s.closed {
		return s.err
	}
	s.closed = true
	return s.scan(true)
}

func (s *stream) Offset() int64 { return s.base + int64(len(s.buf)) }
