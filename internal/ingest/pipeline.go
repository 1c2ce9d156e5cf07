package ingest

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
)

// The chunking pipeline: the paper's Reader → Transfer → Kernel → Store
// overlap (Fig. 2) over real work. A producer goroutine reads the
// source into pooled segment buffers and feeds them to a chunk.Engine
// stream, recording boundaries only; a small worker set fingerprints
// the chunks a batch at a time; the consumer takes hashed batches in
// stream order. Chunk bodies are views into the segments — nothing is
// copied per chunk — and a segment goes back to its pool when the last
// batch holding a view into it is released.
//
// Nothing here knows about sessions or frames: the consumer decides
// what a batch is for (the dedup client turns one into a HasBatch
// round), so a server-side ingest can run the same stages.

const (
	// segmentSize is how much of the stream one segment buffer holds.
	// A segment also carries the previous segment's un-cut tail at its
	// front, so every chunk lies inside one segment.
	segmentSize = 4 << 20
	// feedSize is how much of a segment the engine is handed at a time.
	// Engines keep what they are written until they have cut it, so a
	// whole segment at once would have each stream's engine grow a
	// segment-sized buffer of its own; in slices that buffer stays small
	// enough to scan out of cache.
	feedSize = 256 << 10
	// pipelineDepth is how many batches may queue ahead of the consumer.
	// With batches capped at a segment's worth of bytes, pipelineDepth+2
	// segments (the queue, the batch being consumed, the segment being
	// filled) bound a pipeline's memory; segmentPool.get says when a
	// segment's buffer is larger than segmentSize.
	pipelineDepth = 4
	// maxHashWorkers caps the fingerprint workers: one scanning producer
	// cannot feed more, even where SHA-256 has no hardware support.
	maxHashWorkers = 4
)

// segment is one pooled read buffer. refs counts the producer (while it
// fills and scans the buffer) plus every batch holding views into it.
type segment struct {
	buf  []byte
	base int64 // stream offset of buf[0]
	refs atomic.Int32
	pool *segmentPool
}

func (s *segment) release() {
	if s.refs.Add(-1) == 0 {
		s.pool.put(s)
	}
}

// segmentPool lends out at most a fixed number of segments and keeps
// returned ones for the next stream. Buffers are allocated as streams
// come to need them and the one returned last is lent first, so a
// session whose streams fit one segment only ever touches one.
type segmentPool struct {
	avail chan struct{} // one token per segment not lent out
	mu    sync.Mutex
	idle  []*segment // returned segments, most recent last
}

func newSegmentPool(n int) *segmentPool {
	p := &segmentPool{avail: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		p.avail <- struct{}{}
	}
	return p
}

// quiet reports whether every segment is back in the pool.
func (p *segmentPool) quiet() bool { return len(p.avail) == cap(p.avail) }

func (p *segmentPool) put(s *segment) {
	p.mu.Lock()
	p.idle = append(p.idle, s)
	p.mu.Unlock()
	p.avail <- struct{}{}
}

// get waits for a free segment and returns it holding one reference,
// with room for carry bytes plus at least half a segment of new ones.
// It returns nil once quit is closed. A buffer grown for a large carry
// stays that size in the pool: an engine that needed it once needs it
// for every segment.
func (p *segmentPool) get(carry int, quit <-chan struct{}) *segment {
	select {
	case <-p.avail:
	case <-quit:
		return nil
	}
	var s *segment
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		s, p.idle = p.idle[n-1], p.idle[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = &segment{pool: p}
	}
	if need := carry + segmentSize/2; cap(s.buf) < need {
		// Only an engine that holds back more than half a segment
		// between writes (chunk.Parallel with many workers, a spec with
		// multi-megabyte chunks) outgrows the standard size.
		size := segmentSize
		if need > size {
			size = carry + segmentSize
		}
		s.buf = make([]byte, size)
	}
	s.refs.Store(1)
	return s
}

// chunkBatch is a run of consecutive chunks: their bodies as views into
// the pipeline's segments and, once hashed is closed, their
// fingerprints. The views stay valid until release.
type chunkBatch struct {
	hashes []dedup.Hash
	bodies [][]byte
	bytes  int64
	segs   []*segment
	hashed chan struct{}
}

// release drops the batch's hold on its segments; the bodies must not
// be touched afterwards.
func (b *chunkBatch) release() {
	for _, s := range b.segs {
		s.release()
	}
	b.segs, b.bodies = nil, nil
}

// pipelineTimes is where a pipeline's time went, summed per stage.
type pipelineTimes struct {
	scan  time.Duration // producer reading the source and cutting it
	hash  time.Duration // fingerprinting, summed over the workers
	stall time.Duration // producer waiting for a free segment or queue slot
}

// chunkPipeline cuts and fingerprints one stream. The consumer calls
// next until it returns io.EOF (or the stream's error), releases each
// batch when it is done with the bodies, and calls stop before it
// returns.
type chunkPipeline struct {
	src      io.Reader
	eng      chunk.Engine
	pool     *segmentPool
	maxCount int   // a batch closes at this many chunks...
	maxBytes int64 // ...or once it holds this many body bytes

	out   chan *chunkBatch // batches in stream order, hashed or about to be
	hashq chan *chunkBatch
	quit  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	// Producer-goroutine state; stop reads times after the goroutines
	// have exited, next reads err after out is closed.
	cur   *segment
	cut   int64 // stream offset up to which chunks have been emitted
	off   int64 // stream offset of the next byte to read
	batch *chunkBatch
	times pipelineTimes
	err   error

	hashNS atomic.Int64
}

// startChunkPipeline starts cutting src with eng into batches of at
// most maxCount chunks, a batch closing early once it holds maxBytes.
func startChunkPipeline(src io.Reader, eng chunk.Engine, pool *segmentPool, maxCount int, maxBytes int64) *chunkPipeline {
	p := &chunkPipeline{
		src: src, eng: eng, pool: pool, maxCount: maxCount, maxBytes: maxBytes,
		// out lets the consumer fall pipelineDepth batches behind; hashq
		// is as deep so that a batch out never waits behind it for a
		// worker that is merely busy.
		out:   make(chan *chunkBatch, pipelineDepth),
		hashq: make(chan *chunkBatch, pipelineDepth),
		quit:  make(chan struct{}),
	}
	n := min(runtime.GOMAXPROCS(0), maxHashWorkers)
	p.wg.Add(1 + n)
	go p.produce()
	for i := 0; i < n; i++ {
		go p.hashWorker()
	}
	return p
}

// next returns the following batch with its fingerprints filled, io.EOF
// at the clean end of the stream, or the error that ended it. Batches
// cut before a failure are delivered first.
func (p *chunkPipeline) next() (*chunkBatch, error) {
	b, ok := <-p.out
	if !ok {
		if p.err != nil {
			return nil, p.err
		}
		return nil, io.EOF
	}
	<-b.hashed
	return b, nil
}

// stop ends the pipeline — early when the stream is not finished —
// waits for its goroutines to exit, returns every segment still queued
// to the pool and reports the stage times. The source's Read cannot be
// interrupted, so stop waits out one that is in flight. It is
// idempotent.
func (p *chunkPipeline) stop() pipelineTimes {
	p.once.Do(func() {
		close(p.quit)
		p.wg.Wait()
		for b := range p.out {
			b.release()
		}
		p.times.hash = time.Duration(p.hashNS.Load())
	})
	return p.times
}

// errStopped unwinds the producer out of the engine after stop.
var errStopped = errors.New("ingest: chunk pipeline stopped")

// produce is the read+scan stage's goroutine.
func (p *chunkPipeline) produce() {
	defer p.wg.Done()
	defer close(p.out)
	defer close(p.hashq)
	if err := p.run(); !errors.Is(err, errStopped) {
		p.err = err
	}
	if p.batch != nil {
		p.batch.release()
	}
	if p.cur != nil {
		p.cur.release()
	}
}

func (p *chunkPipeline) run() error {
	sink := p.eng.Stream(p.emit)
	for {
		// The un-cut tail moves to the front of a fresh segment, so the
		// chunk it belongs to is contiguous there.
		var tail []byte
		if p.cur != nil {
			tail = p.cur.buf[p.cut-p.cur.base : p.off-p.cur.base]
		}
		t0 := time.Now()
		seg := p.pool.get(len(tail), p.quit)
		p.times.stall += time.Since(t0)
		if seg == nil {
			return errStopped
		}
		seg.base = p.cut
		copy(seg.buf, tail)
		if p.cur != nil {
			p.cur.release()
		}
		p.cur = seg

		// What the source delivered is cut before its error is looked at:
		// only io.EOF is the end of the stream, anything else fails it —
		// after the batches its bytes completed.
		t0, stalled := time.Now(), p.times.stall
		n, rerr := readFull(p.src, seg.buf[len(tail):])
		p.off += int64(n)
		var err error
		for fresh := seg.buf[len(tail) : len(tail)+n]; len(fresh) > 0 && err == nil; {
			w := min(len(fresh), feedSize)
			_, err = sink.Write(fresh[:w])
			fresh = fresh[w:]
		}
		if err == nil && rerr == io.EOF {
			err = sink.Close()
		}
		p.times.scan += time.Since(t0) - (p.times.stall - stalled)
		if err != nil {
			return err
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	if p.batch == nil {
		return nil
	}
	return p.closeBatch()
}

// readFull reads from r until buf is full or r returns an error, which
// it passes on untouched: unlike io.ReadFull it never turns a short
// stream into io.ErrUnexpectedEOF, so an r that reports that error
// itself (a truncated archive, a cut-off body) is not taken for one
// that ended cleanly.
func readFull(r io.Reader, buf []byte) (n int, err error) {
	for n < len(buf) && err == nil {
		var m int
		m, err = r.Read(buf[n:])
		n += m
	}
	return n, err
}

// emit records one chunk the engine cut: a view into the current
// segment, located by the chunk's stream offset.
func (p *chunkPipeline) emit(c chunk.Chunk, _ []byte) error {
	if c.Offset != p.cut || c.End() > p.off {
		return errors.New("ingest: chunk engine emitted chunks out of stream order")
	}
	p.cut = c.End()
	seg := p.cur
	b := p.batch
	if b == nil {
		b = &chunkBatch{bodies: make([][]byte, 0, p.maxCount), hashed: make(chan struct{})}
		p.batch = b
	}
	if n := len(b.segs); n == 0 || b.segs[n-1] != seg {
		seg.refs.Add(1)
		b.segs = append(b.segs, seg)
	}
	lo, hi := c.Offset-seg.base, c.End()-seg.base
	b.bodies = append(b.bodies, seg.buf[lo:hi:hi])
	b.bytes += c.Length
	if len(b.bodies) < p.maxCount && b.bytes < p.maxBytes {
		return nil
	}
	return p.closeBatch()
}

// closeBatch hands the open batch on. It goes on the consumer's queue
// before the workers', so a batch a worker holds is always on out too —
// which is where stop looks for segments to return; one that cannot go
// there any more gives its segments back here.
func (p *chunkPipeline) closeBatch() error {
	b := p.batch
	p.batch = nil
	if !p.send(p.out, b) {
		b.release()
		return errStopped
	}
	if !p.send(p.hashq, b) {
		return errStopped
	}
	return nil
}

// send queues b on ch, counting the wait as a stall; false means the
// pipeline was stopped first.
func (p *chunkPipeline) send(ch chan<- *chunkBatch, b *chunkBatch) bool {
	t0 := time.Now()
	defer func() { p.times.stall += time.Since(t0) }()
	select {
	case ch <- b:
		return true
	case <-p.quit:
		return false
	}
}

// hashWorker fingerprints batches and marks each ready for the consumer.
func (p *chunkPipeline) hashWorker() {
	defer p.wg.Done()
	for b := range p.hashq {
		t0 := time.Now()
		b.hashes = make([]dedup.Hash, len(b.bodies))
		for i, body := range b.bodies {
			b.hashes[i] = dedup.Sum(body)
		}
		p.hashNS.Add(int64(time.Since(t0)))
		close(b.hashed)
	}
}
