package shardstore

import (
	"errors"
	"fmt"

	"shredder/internal/dedup"
)

// MemoryBacking is the non-durable Backing: containers live in RAM,
// nothing is journaled, and Recover yields nothing. It is the backing
// behind New and preserves the seed store's semantics exactly
// (including dedup.Store-identical container packing per shard).
type MemoryBacking struct {
	shards []*memShard
}

// memShard is one in-memory stripe: the container slices, append-only,
// serialized by the Store's stripe lock.
type memShard struct {
	containerSize int64
	containers    [][]byte
}

// NewMemoryBacking lays out an in-memory backing with the given shard
// count (a power of two in [1, MaxShards]; 0 means 16) and container
// size (0 means dedup.DefaultContainerSize).
func NewMemoryBacking(shards int, containerSize int64) (*MemoryBacking, error) {
	if shards == 0 {
		shards = 16
	}
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("shardstore: shard count %d outside [1, %d]", shards, MaxShards)
	}
	if shards&(shards-1) != 0 {
		return nil, fmt.Errorf("shardstore: shard count %d is not a power of two", shards)
	}
	if containerSize < 0 {
		return nil, errors.New("shardstore: negative container size")
	}
	if containerSize == 0 {
		containerSize = dedup.DefaultContainerSize
	}
	b := &MemoryBacking{shards: make([]*memShard, shards)}
	for i := range b.shards {
		b.shards[i] = &memShard{containerSize: containerSize}
	}
	return b, nil
}

func (b *MemoryBacking) NumShards() int                      { return len(b.shards) }
func (b *MemoryBacking) Shard(i int) ShardBacking            { return b.shards[i] }
func (b *MemoryBacking) CommitRecipe(string, Recipe) error   { return nil }
func (b *MemoryBacking) DeleteRecipe(string) error           { return nil }
func (b *MemoryBacking) Recipes() (map[string]Recipe, error) { return nil, nil }
func (b *MemoryBacking) Sync() error                         { return nil }
func (b *MemoryBacking) Close() error                        { return nil }

// Recover is a no-op: memory starts empty.
func (m *memShard) Recover(func(Hash, Ref, int64) error) error { return nil }

// Append packs data into the open container (rolling when full),
// identical to dedup.Store.append. Containers are append-only: bytes at
// an occupied offset are never rewritten, so refs handed out remain
// valid views. The open (last) container is never nil: Checkpoint only
// drops earlier slots.
func (m *memShard) Append(_ Hash, data []byte) (int, int64, error) {
	if len(m.containers) == 0 || int64(len(m.containers[len(m.containers)-1]))+int64(len(data)) > m.containerSize {
		m.containers = append(m.containers, make([]byte, 0, m.containerSize))
	}
	ci := len(m.containers) - 1
	c := m.containers[ci]
	off := int64(len(c))
	m.containers[ci] = append(c, data...)
	return ci, off, nil
}

// Relocate re-packs a surviving chunk during compaction: with nothing
// to journal, a move is an append.
func (m *memShard) Relocate(h Hash, data []byte) (int, int64, error) {
	return m.Append(h, data)
}

func (m *memShard) LogRefDelta(Hash, int64) error { return nil }
func (m *memShard) Commit() error                 { return nil }

// ContainerLen reports container i's byte count, -1 for dropped slots.
func (m *memShard) ContainerLen(i int) int64 {
	if i < 0 || i >= len(m.containers) {
		return -1
	}
	if m.containers[i] == nil {
		return -1
	}
	return int64(len(m.containers[i]))
}

// Checkpoint has no journal to rewrite in memory; it just drops the
// victim containers so their bytes can be garbage-collected. Slots are
// nilled, not removed: later containers keep their numbers. Previously
// returned views into a dropped container stay valid (the Store only
// drops containers its index no longer references).
func (m *memShard) Checkpoint(_ []CheckpointEntry, drop []int) error {
	for _, ci := range drop {
		if ci >= 0 && ci < len(m.containers)-1 {
			m.containers[ci] = nil
		}
	}
	return nil
}

// Read returns a read-only view into the container; it stays valid
// because containers are append-only.
func (m *memShard) Read(container int, offset, length int64) ([]byte, error) {
	if container < 0 || container >= len(m.containers) {
		return nil, fmt.Errorf("shardstore: container %d out of range", container)
	}
	c := m.containers[container]
	if offset < 0 || length < 0 || offset+length > int64(len(c)) {
		return nil, fmt.Errorf("shardstore: range [%d, %d) outside container %d", offset, offset+length, container)
	}
	return c[offset : offset+length : offset+length], nil
}

func (m *memShard) Containers() int { return len(m.containers) }
