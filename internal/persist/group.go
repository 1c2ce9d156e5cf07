package persist

import (
	"sync"
	"time"
)

// groupCommitter coalesces commit-point fsyncs from concurrent sessions
// into shared sync passes (group commit). With Options.CommitWindow
// switched on, commit points stage and flush their records but skip the
// inline fsync; callers regain the durable-before-ack guarantee through
// Backing.Barrier, which blocks until a syncer round covering the
// caller's appends has fsynced every shard and the recipe journal.
// The syncer is self-clocking: a round starts the moment a waiter is
// pending and no round is in flight, and it takes with it every waiter
// that has registered by the time the pass locks the recipe journal —
// everything flushed or appended before that moment is covered by the
// locked shard pass and the journal fsync that follow (Backing.sync).
// Waiters arriving later form the next round: the disk's own latency does
// the batching, no timer. A lone session pays exactly one pass, N
// concurrent sessions share one, and each waiter still learns the real
// outcome of the pass covering its records.
type groupCommitter struct {
	b *Backing

	mu   sync.Mutex
	cond *sync.Cond
	// joining is the round new waiters register with. The pass in flight
	// takes it and installs a fresh one when it closes its membership.
	joining  *groupRound
	closed   bool
	loopDone chan struct{}

	lastBytes int64 // flushedBytes watermark at the previous round (run goroutine only)
}

// groupRound is one sync round: who waits for it and, once done, how the
// pass covering them ended.
type groupRound struct {
	waiters int
	done    bool
	err     error
}

func newGroupCommitter(b *Backing) *groupCommitter {
	g := &groupCommitter{
		b:        b,
		joining:  &groupRound{},
		loopDone: make(chan struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	go g.run()
	return g
}

// wait blocks until the first sync round that closes its membership
// after the call has completed and returns that round's outcome. Records
// the caller staged before calling wait are covered by that round: past
// the close it syncs every shard and then the journal.
func (g *groupCommitter) wait() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return errClosed
	}
	r := g.joining
	if r.waiters++; r.waiters == 1 {
		g.cond.Broadcast()
	}
	// Once registered, the round is guaranteed to run — the syncer drains
	// joined waiters before exiting on close — so this wait always
	// resolves to a real sync outcome.
	for !r.done {
		g.cond.Wait()
	}
	return r.err
}

// run is the syncer goroutine: sleep until a waiter has joined, fsync
// everything once, publish the outcome to the round the pass took,
// repeat. It is the only goroutine that starts passes, so at most one is
// in flight. After close it keeps going until no waiter is queued.
func (g *groupCommitter) run() {
	defer close(g.loopDone)
	for {
		g.mu.Lock()
		for g.joining.waiters == 0 && !g.closed {
			g.cond.Wait()
		}
		if g.joining.waiters == 0 {
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()

		var r *groupRound
		t0 := time.Now()
		err := g.b.sync(func() { r = g.cut() })
		g.observeRound(r.waiters, t0)

		g.mu.Lock()
		r.err, r.done = err, true
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// cut closes the joining round's membership and hands it to the pass in
// flight. Backing.sync calls it holding b.rmu, before its locked shard
// pass.
func (g *groupCommitter) cut() *groupRound {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.joining
	g.joining = &groupRound{}
	return r
}

// observeRound records one round's duration, how many sessions shared
// it, and the bytes it made durable.
func (g *groupCommitter) observeRound(waiters int, t0 time.Time) {
	g.b.met.groupRounds.Add(1)
	if h := g.b.met.groupRoundSeconds.Load(); h != nil {
		h.ObserveSince(t0)
	}
	if h := g.b.met.groupWaiters.Load(); h != nil {
		h.Observe(float64(waiters))
	}
	flushed := g.b.met.flushedBytes.Load()
	if h := g.b.met.groupBytes.Load(); h != nil {
		h.Observe(float64(flushed - g.lastBytes))
	}
	g.lastBytes = flushed
}

// close wakes the syncer, lets it drain any queued waiters with real
// sync outcomes, and joins it. Waiters arriving after close fail with
// errClosed.
func (g *groupCommitter) close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
	<-g.loopDone
}
