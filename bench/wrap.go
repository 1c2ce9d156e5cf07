package main

import (
	"net"

	"shredder/internal/obs"
	"shredder/internal/persist"
	"shredder/internal/shardstore"
)

// cliConn is the client end of the loopback connection. It always
// counts bytes and write→read turnarounds (that is the wire cost the
// benchmark reports); it times the calls only in a traced run. One
// session uses it from one goroutine at a time.
type cliConn struct {
	net.Conn
	m     *meter
	wrote bool
}

func (c *cliConn) Read(p []byte) (int, error) {
	if c.wrote {
		c.wrote = false
		c.m.rounds.Add(1)
	}
	t0 := c.m.start()
	n, err := c.Conn.Read(p)
	c.m.done(tCliRead, t0, int64(n))
	return n, err
}

func (c *cliConn) Write(p []byte) (int, error) {
	c.wrote = true
	t0 := c.m.start()
	n, err := c.Conn.Write(p)
	c.m.done(tCliWrite, t0, int64(n))
	return n, err
}

// tracedListener hands the server connections that time how long the
// session goroutine spends blocked on its peer.
type tracedListener struct {
	net.Listener
	m *meter
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &srvConn{Conn: c, m: l.m}, nil
}

type srvConn struct {
	net.Conn
	m *meter
}

// A server-side conn call that began before the current operation did
// belongs to the gap between operations. A read was waiting for this
// operation's request: the part inside the operation is its cost. A
// write was an earlier ack whose goroutine got the processor back late:
// none of it is this operation's.

func (c *srvConn) Read(p []byte) (int, error) {
	t0 := c.m.start()
	n, err := c.Conn.Read(p)
	if t0 >= 0 {
		t0 = max(t0, c.m.opStart.Load())
	}
	c.m.done(tSrvRead, t0, int64(n))
	return n, err
}

func (c *srvConn) Write(p []byte) (int, error) {
	t0 := c.m.start()
	n, err := c.Conn.Write(p)
	if t0 < c.m.opStart.Load() {
		t0 = -1
	}
	c.m.done(tSrvWrite, t0, int64(n))
	return n, err
}

// timedBacking decorates the durable backing for a traced run: every
// call the store makes into persist is timed at the shardstore.Backing
// boundary. Embedding forwards what it does not time (NumShards,
// Missing, Recipes, Close, SetSpan), so the store sees the same
// capabilities — group-commit Barrier and span attribution included —
// as on the bare backing.
type timedBacking struct {
	*persist.Backing
	m      *meter
	rec    *recorder
	shards []*timedShard
}

var (
	_ shardstore.Backing        = (*timedBacking)(nil)
	_ shardstore.BarrierBacking = (*timedBacking)(nil)
)

func newTimedBacking(b *persist.Backing, rec *recorder) *timedBacking {
	tb := &timedBacking{Backing: b, m: rec.m, rec: rec, shards: make([]*timedShard, b.NumShards())}
	for i := range tb.shards {
		inner := b.Shard(i)
		sink, _ := inner.(spanSetter)
		tb.shards[i] = &timedShard{ShardBacking: inner, sink: sink, tb: tb}
	}
	return tb
}

func (b *timedBacking) Shard(i int) shardstore.ShardBacking { return b.shards[i] }

// finish closes a call begun with m.start; per-batch calls also get a
// span of their own.
func (b *timedBacking) finish(id int, t0, bytes int64) {
	// Under a microsecond the call did nothing (Barrier without a commit
	// window): it stays in the tally, a span would only bloat the file.
	if t1 := b.m.done(id, t0, bytes); t1-t0 >= 1000 && t0 >= 0 {
		b.rec.call(id, t0, t1, bytes)
	}
}

func (b *timedBacking) CommitRecipe(name string, r shardstore.Recipe) error {
	t0 := b.m.start()
	err := b.Backing.CommitRecipe(name, r)
	b.finish(tCommitRecipe, t0, int64(len(r))*int64(len(shardstore.Hash{})))
	return err
}

func (b *timedBacking) DeleteRecipe(name string) error {
	t0 := b.m.start()
	err := b.Backing.DeleteRecipe(name)
	b.finish(tDeleteRecipe, t0, 0)
	return err
}

func (b *timedBacking) Sync() error {
	t0 := b.m.start()
	err := b.Backing.Sync()
	b.finish(tSync, t0, 0)
	return err
}

func (b *timedBacking) Barrier() error {
	t0 := b.m.start()
	err := b.Backing.Barrier()
	b.finish(tBarrier, t0, 0)
	return err
}

// spanSetter is shardstore's span-attribution hook, which persist's
// shards implement; the decorator must not hide it.
type spanSetter interface{ SetSpan(*obs.Span) }

// timedShard times one stripe's calls. The per-chunk ones (Append,
// LogRefDelta, Commit, Read) use no closure: the decorator must not
// add an allocation per chunk to the run it measures.
type timedShard struct {
	shardstore.ShardBacking
	sink spanSetter
	tb   *timedBacking
}

func (s *timedShard) SetSpan(sp *obs.Span) {
	if s.sink != nil {
		s.sink.SetSpan(sp)
	}
}

func (s *timedShard) Append(h shardstore.Hash, data []byte) (int, int64, error) {
	t0 := s.tb.m.start()
	ci, off, err := s.ShardBacking.Append(h, data)
	s.tb.m.done(tAppend, t0, int64(len(data)))
	return ci, off, err
}

func (s *timedShard) LogRefDelta(h shardstore.Hash, delta int64) error {
	t0 := s.tb.m.start()
	err := s.ShardBacking.LogRefDelta(h, delta)
	s.tb.m.done(tRefDelta, t0, 0)
	return err
}

func (s *timedShard) Commit() error {
	t0 := s.tb.m.start()
	err := s.ShardBacking.Commit()
	s.tb.m.done(tShardCommit, t0, 0)
	return err
}

func (s *timedShard) Read(container int, offset, length int64) ([]byte, error) {
	t0 := s.tb.m.start()
	data, err := s.ShardBacking.Read(container, offset, length)
	s.tb.m.done(tRead, t0, length)
	return data, err
}

func (s *timedShard) Relocate(h shardstore.Hash, data []byte) (int, int64, error) {
	t0 := s.tb.m.start()
	ci, off, err := s.ShardBacking.Relocate(h, data)
	s.tb.m.done(tRelocate, t0, int64(len(data)))
	return ci, off, err
}

func (s *timedShard) Checkpoint(live []shardstore.CheckpointEntry, drop []int) error {
	t0 := s.tb.m.start()
	err := s.ShardBacking.Checkpoint(live, drop)
	s.tb.finish(tCheckpoint, t0, 0)
	return err
}
