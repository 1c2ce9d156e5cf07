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
// source into pooled segment buffers and has the engine's Scanner cut
// them where they lie; a small worker set fingerprints the chunks a
// batch at a time; the consumer takes hashed batches in stream order.
// Chunk bodies are views into the segments — the segments are the only
// copy of the stream the pipeline holds — and a segment goes back to
// its pool when the last batch holding a view into it is released.
//
// Nothing here knows about sessions or frames. The one consumer, Feeder,
// hands each batch to an Adder, which decides what a batch is for: a put
// on the server's raw path, a round on every owner in a cluster, a round
// with the bodies in hand on the dedup client.

const (
	// batchChunks and batchBytes close a batch: at this many chunks, or
	// once it holds this many body bytes. A batch is one HasBatch round
	// on the dedup client and one put on the server's raw path — large
	// enough to amortize a round trip or a stripe lock, small enough that
	// a stream of a few megabytes still moves through the stages in
	// several steps.
	batchChunks = 256
	batchBytes  = 4 << 20
	// segmentSize is how much of the stream one segment buffer holds.
	// A segment also carries the previous segment's un-cut tail at its
	// front — and the Scanner's Overlap before that — so every chunk,
	// and the context to go on cutting after it, lies inside one segment.
	segmentSize = 4 << 20
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
// stays that size in the pool: a spec that needed it once needs it for
// every segment.
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
		// The carry is one un-cut chunk and the Scanner's Overlap: only
		// a spec whose chunks exceed half a segment (2 MiB) — or one with
		// no MaxSize, on data without boundaries — outgrows the standard
		// size.
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
// the pipeline's segments and their fingerprints. The views stay valid
// until release.
type chunkBatch struct {
	hashes []dedup.Hash
	bodies [][]byte
	bytes  int64
	segs   []*segment
	hashed chan struct{} // closed once hashes is filled; nil on an inline pipeline
}

// release drops the batch's hold on its segments; the bodies must not
// be touched afterwards.
func (b *chunkBatch) release() {
	for _, s := range b.segs {
		s.release()
	}
	b.segs, b.bodies = nil, nil
}

// hash fingerprints the batch's chunks.
func (b *chunkBatch) hash() {
	b.hashes = make([]dedup.Hash, len(b.bodies))
	for i, body := range b.bodies {
		b.hashes[i] = dedup.Sum(body)
	}
}

// pipelineTimes is where a pipeline's time went, summed per stage.
type pipelineTimes struct {
	scan  time.Duration // reading the source and cutting it
	hash  time.Duration // fingerprinting, summed over the workers
	stall time.Duration // producer waiting for a free segment or queue slot
}

// chunkPipeline cuts and fingerprints one stream. The consumer calls
// next until it returns io.EOF (or the stream's error), releases each
// batch when it is done with the bodies, and calls stop before it
// returns.
//
// A stream that ends inside its first segment has nothing to overlap:
// it is cut and fingerprinted on the caller's goroutine before start
// returns and no goroutine is started (out is nil; next hands out
// ready). Only a longer stream gets the producer and the hash workers,
// which take over the segment start filled.
type chunkPipeline struct {
	src  io.Reader
	sc   chunk.Scanner // cuts the current segment in place, emitting into emit
	pool *segmentPool

	out   chan *chunkBatch // batches in stream order, hashed or about to be
	hashq chan *chunkBatch
	quit  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	// Scanning state, the producer goroutine's once there is one; stop
	// reads times after the goroutines have exited, next reads err after
	// out is closed.
	cur   *segment
	cut   int64 // stream offset up to which chunks have been emitted
	off   int64 // stream offset of the next byte to read
	batch *chunkBatch
	ready []*chunkBatch // inline only: closed batches next has not handed out
	times pipelineTimes
	err   error

	hashNS atomic.Int64
}

// startChunkPipeline starts cutting src with eng into batches of at
// most batchChunks chunks, a batch closing early once it holds
// batchBytes. It reads the stream's first segment before it returns.
func startChunkPipeline(src io.Reader, eng chunk.Engine, pool *segmentPool) *chunkPipeline {
	p := &chunkPipeline{src: src, sc: eng.Scanner(), pool: pool}
	t0 := time.Now()
	p.cur = pool.get(0, nil)
	p.cur.base = 0
	n, rerr := readFull(src, p.cur.buf)
	p.off = int64(n)
	p.times.scan = time.Since(t0)
	if rerr != nil {
		p.finish(p.run(rerr))
		t0 = time.Now()
		for _, b := range p.ready {
			b.hash()
		}
		p.times.hash = time.Since(t0)
		return p
	}
	// out lets the consumer fall pipelineDepth batches behind; hashq is
	// as deep so that a batch out never waits behind it for a worker that
	// is merely busy.
	p.out = make(chan *chunkBatch, pipelineDepth)
	p.hashq = make(chan *chunkBatch, pipelineDepth)
	p.quit = make(chan struct{})
	workers := min(runtime.GOMAXPROCS(0), maxHashWorkers)
	p.wg.Add(1 + workers)
	go p.produce()
	for i := 0; i < workers; i++ {
		go p.hashWorker()
	}
	return p
}

// next returns the following batch with its fingerprints filled, io.EOF
// at the clean end of the stream, or the error that ended it. Batches
// cut before a failure are delivered first.
func (p *chunkPipeline) next() (*chunkBatch, error) {
	var b *chunkBatch
	if p.out != nil {
		if b = <-p.out; b != nil {
			<-b.hashed
		}
	} else if len(p.ready) > 0 {
		b, p.ready = p.ready[0], p.ready[1:]
	}
	if b != nil {
		return b, nil
	}
	if p.err != nil {
		return nil, p.err
	}
	return nil, io.EOF
}

// stop ends the pipeline — early when the stream is not finished —
// waits for its goroutines to exit, returns every segment still queued
// to the pool and reports the stage times. The source's Read cannot be
// interrupted, so stop waits out one that is in flight. It is
// idempotent.
func (p *chunkPipeline) stop() pipelineTimes {
	p.once.Do(func() {
		if p.out == nil {
			for _, b := range p.ready {
				b.release()
			}
			p.ready = nil
			return
		}
		close(p.quit)
		p.wg.Wait()
		for b := range p.out {
			b.release()
		}
		p.times.hash = time.Duration(p.hashNS.Load())
	})
	return p.times
}

// errStopped unwinds the producer out of the Scanner after stop.
var errStopped = errors.New("ingest: chunk pipeline stopped")

// produce is the read+scan stage's goroutine; it takes over the first
// segment as start filled it, not yet cut.
func (p *chunkPipeline) produce() {
	defer p.wg.Done()
	defer close(p.out)
	defer close(p.hashq)
	p.finish(p.run(nil))
}

// finish records how run ended and gives back what it still held: the
// current segment, and a batch left open by a failure.
func (p *chunkPipeline) finish(err error) {
	if !errors.Is(err, errStopped) {
		p.err = err
	}
	if p.batch != nil {
		p.batch.release()
	}
	if p.cur != nil {
		p.cur.release()
	}
}

// run cuts the stream from the current segment on, which start's read
// filled; rerr is that read's error.
func (p *chunkPipeline) run(rerr error) error {
	for {
		t0, stalled := time.Now(), p.times.stall
		err := p.scan(rerr)
		p.times.scan += time.Since(t0) - (p.times.stall - stalled)
		if err != nil {
			return err
		}
		if rerr == io.EOF {
			break
		}
		// The un-cut tail moves to the front of a fresh segment, so the
		// chunk it belongs to is contiguous there, behind the bytes the
		// Scanner still wants before it.
		from := max(p.cut-int64(p.sc.Overlap()), p.cur.base)
		tail := p.cur.buf[from-p.cur.base : p.off-p.cur.base]
		t0 = time.Now()
		seg := p.pool.get(len(tail), p.quit)
		p.times.stall += time.Since(t0)
		if seg == nil {
			return errStopped
		}
		seg.base = from
		copy(seg.buf, tail)
		p.cur.release()
		p.cur = seg

		t0 = time.Now()
		var n int
		n, rerr = readFull(p.src, seg.buf[len(tail):])
		p.off += int64(n)
		p.times.scan += time.Since(t0)
	}
	if p.batch == nil {
		return nil
	}
	return p.closeBatch()
}

// scan cuts the current segment, to which a read has just added bytes,
// to the stream's last chunk when rerr, the read's error, says they were
// the last. What the source delivered is cut before its error is looked
// at: only io.EOF is the end of the stream, anything else fails it —
// after the batches its bytes completed.
func (p *chunkPipeline) scan(rerr error) error {
	seg := p.cur
	err := p.sc.Scan(seg.buf[:p.off-seg.base], seg.base, rerr == io.EOF, p.emit)
	if err == nil && rerr != io.EOF {
		err = rerr
	}
	return err
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

// emit records one chunk the Scanner cut: a view into the current
// segment, located by the chunk's stream offset.
func (p *chunkPipeline) emit(c chunk.Chunk) error {
	if c.Offset != p.cut || c.End() > p.off {
		return errors.New("ingest: chunk engine emitted chunks out of stream order")
	}
	p.cut = c.End()
	seg := p.cur
	b := p.batch
	if b == nil {
		b = &chunkBatch{bodies: make([][]byte, 0, batchChunks)}
		p.batch = b
	}
	if n := len(b.segs); n == 0 || b.segs[n-1] != seg {
		seg.refs.Add(1)
		b.segs = append(b.segs, seg)
	}
	lo, hi := c.Offset-seg.base, c.End()-seg.base
	b.bodies = append(b.bodies, seg.buf[lo:hi:hi])
	b.bytes += c.Length
	if len(b.bodies) < batchChunks && b.bytes < batchBytes {
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
	if p.out == nil {
		p.ready = append(p.ready, b)
		return nil
	}
	b.hashed = make(chan struct{})
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
		b.hash()
		p.hashNS.Add(int64(time.Since(t0)))
		close(b.hashed)
	}
}
