// Parallel single-stream chunking: the paper's core idea — split a
// large stream into fixed regions, chunk every region on its own core,
// and fix up the seams so the output is byte-identical to a sequential
// scan — lifted onto the Engine API so it works for any engine whose
// boundary test depends on a bounded window of preceding bytes.
//
// The trick (Shredder §3.2, previously prototyped in the retired
// pchunk package) is that a rolling-hash boundary at position p is a
// pure function of a fixed number of bytes ending at p: a worker
// assigned region [lo, hi) first warms its rolling state on the bytes
// just before lo, then scans its region emitting candidate boundaries
// whose fingerprints exactly equal a sequential scan's. Candidates
// carry no min/max/normalization policy — that is inherently
// sequential (each cut depends on where the previous cut landed) — so
// a final single-threaded resolve pass replays the engine's policy
// over the merged candidate list. The scan is ~99% of the work; the
// resolve touches only candidate positions (plus, for FastCDC, a
// sub-window of bytes per chunk) and is effectively free.
package chunk

import (
	"runtime"
	"sync"
	"time"

	"shredder/internal/obs"
)

// candidate is one potential boundary found by a region scan: pos is
// the exclusive end offset of the would-be chunk, fp the rolling hash
// that fired there.
type candidate struct {
	pos int64
	fp  uint64
}

// regionScanner is the engine capability candScanner and Parallel are
// built on: a region scan whose candidates match a sequential scan's,
// plus the sequential policy replay over them. Parallel over an engine
// without it falls back to that engine, unchanged.
type regionScanner interface {
	// overlap is how many bytes before a region the scan must feed
	// through its rolling state so candidates at every region position
	// equal the sequential scan's (the window-warmup overlap).
	overlap() int
	// scanRegion emits every candidate boundary in data[lo:hi], warming
	// its rolling state from data[max(0, lo-overlap):lo]. Candidates are
	// a superset of real cuts: the resolve pass applies min/max and any
	// mask tightening.
	scanRegion(data []byte, lo, hi int, emit func(candidate))
	// resolve replays the engine's chunking policy over data[start:]
	// given the ascending candidates (entries at or before start are
	// ignored), returning exactly what a sequential Split of a stream
	// ending at len(data) would, with offsets relative to data[0].
	resolve(data []byte, start int, cands []candidate) []Chunk
}

// parallelMinRegion is the smallest per-worker region worth a
// goroutine: below this the window-warmup overlap and scheduling
// overhead eat the speedup.
const parallelMinRegion = 256 << 10

// Parallel wraps an Engine and chunks large inputs on many cores,
// byte-identical to the wrapped engine (differentially tested for
// every engine, feed size and worker count). Small inputs, a single
// worker, or an engine without region support fall back to the wrapped
// engine unchanged. Like every Engine it is stateless between calls
// and safe for concurrent use.
type Parallel struct {
	inner   Engine
	scanner regionScanner
	workers int

	// Instrumentation handles (nil without Instrument; obs methods are
	// nil-tolerant).
	segments    *obs.Counter
	scanBytes   *obs.Counter
	utilization *obs.Histogram
}

var _ Engine = (*Parallel)(nil)

// NewParallel wraps inner to chunk on up to workers cores (0 or
// negative means GOMAXPROCS).
func NewParallel(inner Engine, workers int) *Parallel {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Parallel{inner: inner, workers: workers}
	p.scanner, _ = inner.(regionScanner)
	return p
}

// Spec returns the wrapped engine's configuration.
func (p *Parallel) Spec() Spec { return p.inner.Spec() }

// Inner returns the wrapped engine.
func (p *Parallel) Inner() Engine { return p.inner }

// Workers returns the configured worker count.
func (p *Parallel) Workers() int { return p.workers }

// Instrument registers the parallel chunker's metric families on reg
// and keeps the handles. Families are shared: many Parallel instances
// (one per session) may instrument the same registry and aggregate
// into the same counters. A nil registry is a no-op.
func (p *Parallel) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.segments = reg.Counter("chunk_parallel_segments_total",
		"Parallel region-scan passes executed.")
	p.scanBytes = reg.Counter("chunk_parallel_bytes_total",
		"Bytes scanned by parallel chunking workers.")
	p.utilization = reg.Histogram("chunk_parallel_worker_utilization",
		"Per-pass worker busy share: sum(worker busy time) / (workers x wall time).",
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1})
}

// Split cuts data into chunks, byte-identical to the wrapped engine's
// Split.
func (p *Parallel) Split(data []byte) []Chunk {
	cands, ok := p.parallelScan(data, 0)
	if !ok {
		return p.inner.Split(data)
	}
	return p.scanner.resolve(data, 0, cands)
}

// parallelScan fans data[lo:] out to the workers in fixed regions and
// returns the merged, ascending candidate list. ok is false when the
// input is too small to benefit, the engine has no region support or
// there is no Parallel at all (p is nil); the caller then scans
// sequentially.
func (p *Parallel) parallelScan(data []byte, lo int) ([]candidate, bool) {
	n := len(data) - lo
	if p == nil || p.scanner == nil || p.workers <= 1 || n < 2*parallelMinRegion {
		return nil, false
	}
	workers := p.workers
	if most := n / parallelMinRegion; workers > most {
		workers = most
	}
	region := (n + workers - 1) / workers
	// Per-worker arenas (the paper's Hoard-style allocation ablation:
	// a shared locked arena serializes the scan): each worker appends
	// to its own slice, and the in-order concatenation is already
	// sorted because regions partition the input in order.
	arenas := make([][]candidate, workers)
	busy := make([]time.Duration, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for wi := 0; wi < workers; wi++ {
		rlo := lo + wi*region
		rhi := rlo + region
		if rhi > len(data) {
			rhi = len(data)
		}
		if rlo >= rhi {
			continue
		}
		wg.Add(1)
		go func(wi, rlo, rhi int) {
			defer wg.Done()
			w0 := time.Now()
			local := arenas[wi]
			p.scanner.scanRegion(data, rlo, rhi, func(c candidate) {
				local = append(local, c)
			})
			arenas[wi] = local
			busy[wi] = time.Since(w0)
		}(wi, rlo, rhi)
	}
	wg.Wait()
	p.observeScan(n, workers, busy, time.Since(t0))
	total := 0
	for _, a := range arenas {
		total += len(a)
	}
	out := make([]candidate, 0, total)
	for _, a := range arenas {
		out = append(out, a...)
	}
	return out, true
}

// observeScan records one parallel pass's size and worker utilization.
func (p *Parallel) observeScan(n, workers int, busy []time.Duration, wall time.Duration) {
	p.segments.Add(1)
	p.scanBytes.Add(int64(n))
	if wall <= 0 {
		return
	}
	var sum time.Duration
	for _, d := range busy {
		sum += d
	}
	p.utilization.Observe(float64(sum) / (float64(workers) * float64(wall)))
}

// segmentSize is how many unscanned bytes a Stream buffers before
// running a parallel pass: enough for every worker to get a region
// worth waking for.
func (p *Parallel) segmentSize() int {
	n := p.workers * (512 << 10)
	if n < 1<<20 {
		n = 1 << 20
	}
	return n
}

// Scanner returns the state to cut one stream in place: the wrapped
// engine's candidates, found on all cores wherever a view adds enough
// bytes to go round. Without region support (or a single worker) it is
// the wrapped engine's Scanner.
func (p *Parallel) Scanner() Scanner {
	if p.scanner == nil || p.workers <= 1 {
		return p.inner.Scanner()
	}
	return &candScanner{rs: p.scanner, p: p}
}

// Stream returns an incremental feed that chunks buffered segments on
// all cores, emitting exactly the chunks a sequential stream would.
func (p *Parallel) Stream(emit EmitFunc) Stream { return newStream(p.Scanner(), emit) }
