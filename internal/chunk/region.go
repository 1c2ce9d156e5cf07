// regionScanner implementations for the two engines. Each has to prove
// two properties to plug into candScanner and Parallel:
//
//   - the fingerprint at a position is a pure function of a bounded
//     suffix of preceding bytes (overlap), so a region scan warmed on
//     that suffix emits candidates whose fingerprints exactly equal the
//     engine's own; and
//   - resolve replays the engine's sequential policy (min/max, mask
//     normalization) over the candidate list so the final chunks are
//     byte-identical to the engine's Split.
//
// Rabin's window never resets across chunk boundaries, so candidates
// are exact everywhere and resolve is exactly chunker.ApplyLimits; the
// two are all there is to the Rabin engine, sequential or parallel.
// FastCDC restarts its gear hash at each chunk start and skips the
// first MinSize bytes, so a candidate's fingerprint equals the
// in-chunk hash only once the chunk-relative position has absorbed a
// full gear window (gearWarm bytes); resolve recomputes the short
// prefix zone directly and switches to candidates past it.
package chunk

import (
	"shredder/internal/rabin"
)

// --- Rabin ---

var _ regionScanner = (*Rabin)(nil)

// overlap is the window warmup: the fingerprint at position i covers
// data[i-Window+1 : i+1], so a region scan needs Window-1 bytes of
// runway.
func (r *Rabin) overlap() int { return r.chk.Params().Window - 1 }

// scanRegion emits every full-window marker match in data[lo:hi],
// warming the window on the preceding bytes so each fingerprint equals
// a sequential scan's at the same position.
func (r *Rabin) scanRegion(data []byte, lo, hi int, emit func(candidate)) {
	w := rabin.NewWindow(r.chk.Table())
	warm := lo - r.overlap()
	if warm < 0 {
		warm = 0
	}
	for _, b := range data[warm:lo] {
		w.Slide(b)
	}
	for i := lo; i < hi; i++ {
		fp := w.Slide(data[i])
		if w.Full() && r.chk.IsBoundary(fp) {
			emit(candidate{pos: int64(i) + 1, fp: uint64(fp)})
		}
	}
}

// resolve is chunker.ApplyLimits over the candidates, started at an
// arbitrary offset: forced cuts every MaxSize bytes between content
// boundaries, content cuts only MinSize past the previous cut, and a
// forced tail at the view end. Equivalent to chunker.Split restricted
// to data[start:] (Split and ApplyLimits agree; see their tests).
func (r *Rabin) resolve(data []byte, start int, cands []candidate) []Chunk {
	p := r.chk.Params()
	min := int64(p.MinSize)
	if min == 0 {
		min = 1 // a boundary can never produce an empty chunk
	}
	max := int64(p.MaxSize)
	var out []Chunk
	st := int64(start)
	cut := func(end int64, fp uint64, forced bool) {
		out = append(out, Chunk{Offset: st, Length: end - st, Fingerprint: fp, Forced: forced})
		st = end
	}
	for _, c := range cands {
		if c.pos <= st {
			continue
		}
		if max > 0 {
			for c.pos-st > max {
				cut(st+max, 0, true)
			}
		}
		if c.pos-st >= min {
			cut(c.pos, c.fp, false)
		}
	}
	total := int64(len(data))
	if max > 0 {
		for total-st > max {
			cut(st+max, 0, true)
		}
	}
	if total > st {
		cut(total, 0, true)
	}
	return out
}

// --- FastCDC ---

// gearWarm is the effective gear-hash window: the update
// fp = fp<<1 + gear[b] shifts a byte's contribution out of the 64-bit
// word after 64 more bytes, so the hash at any position is a pure
// function of the last gearWarm bytes.
const gearWarm = 64

var _ regionScanner = (*FastCDC)(nil)

// overlap is the gear warmup: gearWarm-1 preceding bytes fully
// determine the hash at the first scanned position.
func (e *FastCDC) overlap() int { return gearWarm - 1 }

// scanRegion emits every position in data[lo:hi] where the rolling
// gear hash satisfies the loose mask. maskL's bits are a subset of
// maskS's, so the loose matches are a superset of both phases' real
// cuts; resolve re-applies maskS where the normalized policy requires
// it.
func (e *FastCDC) scanRegion(data []byte, lo, hi int, emit func(candidate)) {
	var fp uint64
	warm := lo - e.overlap()
	if warm < 0 {
		warm = 0
	}
	for _, b := range data[warm:lo] {
		fp = fp<<1 + e.gear[b]
	}
	for i := lo; i < hi; i++ {
		fp = fp<<1 + e.gear[data[i]]
		if fp&e.maskL == 0 {
			emit(candidate{pos: int64(i) + 1, fp: fp})
		}
	}
}

// resolve replays cut chunk by chunk. ci is a monotonic cursor into
// cands shared across chunks, so the whole resolve touches each
// candidate a constant number of times.
func (e *FastCDC) resolve(data []byte, start int, cands []candidate) []Chunk {
	var out []Chunk
	s, ci := start, 0
	for s < len(data) {
		n, fp, forced := e.resolveCut(data, s, cands, &ci)
		out = append(out, Chunk{Offset: int64(s), Length: int64(n), Fingerprint: fp, Forced: forced})
		s += n
	}
	return out
}

// resolveCut reproduces cut(data[s:]) using candidates where they are
// exact. A candidate's fingerprint carries up to gearWarm bytes of
// pre-chunk history, while the in-chunk hash starts fresh at
// chunk-relative MinSize; the two coincide exactly once the in-chunk
// hash has absorbed a full gear window, i.e. at chunk-relative
// boundary positions >= MinSize+gearWarm-1. Below that threshold
// (zone A) the hash is recomputed directly, exactly as cut does.
func (e *FastCDC) resolveCut(data []byte, s int, cands []candidate, ci *int) (n int, fp uint64, forced bool) {
	rest := len(data) - s
	if rest <= e.min {
		return rest, 0, true
	}
	limit := rest
	if limit > e.max {
		limit = e.max
	}
	normal := e.avg
	if normal > limit {
		normal = limit
	}
	zoneA := e.min + gearWarm - 1
	var h uint64
	i := e.min
	for ; i < normal && i < zoneA; i++ {
		h = h<<1 + e.gear[data[s+i]]
		if h&e.maskS == 0 {
			return i + 1, h, false
		}
	}
	for ; i < limit && i < zoneA; i++ {
		h = h<<1 + e.gear[data[s+i]]
		if h&e.maskL == 0 {
			return i + 1, h, false
		}
	}
	if i >= limit {
		return limit, 0, true
	}
	// Zone B: candidate fingerprints are exact from here on.
	for *ci < len(cands) && cands[*ci].pos <= int64(s+i) {
		*ci++
	}
	for j := *ci; j < len(cands); j++ {
		bi := int(cands[j].pos) - 1 - s // chunk-relative boundary byte
		if bi >= limit {
			break
		}
		if bi < normal && cands[j].fp&e.maskS != 0 {
			continue // loose match inside the strict phase
		}
		return bi + 1, cands[j].fp, false
	}
	return limit, 0, true
}
