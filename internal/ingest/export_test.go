package ingest

import (
	"errors"
	"sync/atomic"

	"shredder/internal/shardstore"
)

// NewStoreBackend is the back end a Server runs over store, for the
// external test package. Uploaded bodies go to the store eight at a
// time, so short streams still put several batches a round.
func NewStoreBackend(store *shardstore.Store) Backend {
	return &storeBackend{cfg: Config{BatchSize: 8}, store: store}
}

// ErrInjected is the failure a FaultBacking injects.
var ErrInjected = errors.New("injected fault: disk full")

// FaultBacking fails one journal write — a chunk append, a reference
// delta or a recipe commit — the n-th after Arm(n), and only that one.
// Armed with 1 between two batches, it fails the first write of the
// next, which then applies nothing.
type FaultBacking struct {
	shardstore.Backing
	left atomic.Int64
}

func (f *FaultBacking) Arm(n int64) { f.left.Store(n) }

func (f *FaultBacking) trip() error {
	if f.left.Add(-1) == 0 {
		return ErrInjected
	}
	return nil
}

func (f *FaultBacking) Shard(i int) shardstore.ShardBacking {
	return faultShard{f.Backing.Shard(i), f}
}

func (f *FaultBacking) CommitRecipe(name string, r shardstore.Recipe) error {
	if err := f.trip(); err != nil {
		return err
	}
	return f.Backing.CommitRecipe(name, r)
}

// Barrier keeps a group-committing backing's commit barrier.
func (f *FaultBacking) Barrier() error {
	if bb, ok := f.Backing.(shardstore.BarrierBacking); ok {
		return bb.Barrier()
	}
	return nil
}

type faultShard struct {
	shardstore.ShardBacking
	f *FaultBacking
}

func (s faultShard) Append(h shardstore.Hash, data []byte) (int, int64, error) {
	if err := s.f.trip(); err != nil {
		return 0, 0, err
	}
	return s.ShardBacking.Append(h, data)
}

func (s faultShard) LogRefDelta(h shardstore.Hash, delta int64) error {
	if err := s.f.trip(); err != nil {
		return err
	}
	return s.ShardBacking.LogRefDelta(h, delta)
}
