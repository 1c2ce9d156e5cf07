package shardstore

// Backing is the pluggable storage layer behind a Store: it owns the
// chunk bytes (container packing) and whatever durability machinery the
// implementation provides. The Store keeps the fingerprint index (with
// its reference counts) in memory in front of it and is the only holder
// of per-fingerprint state: a backing keeps none once Recover returns.
// A durable backing (internal/persist) journals every index mutation
// to a write-ahead log so Open can hand the entries back after a
// restart, while MemoryBacking journals nothing and recovers nothing.
//
// A Backing is used by exactly one Store. The Store serializes all
// calls to one ShardBacking behind that shard's stripe lock, but
// different shards' backings are called concurrently, and Sync/Close
// may overlap shard calls (a durable backing must tolerate that).
type Backing interface {
	// NumShards reports how many shards the backing was laid out for; a
	// Store opened on it has exactly this many stripes.
	NumShards() int
	// Shard returns the backing for stripe i in [0, NumShards).
	Shard(i int) ShardBacking
	// CommitRecipe durably records a named stream recipe. The Store
	// keeps its own in-memory recipe map; the backing only needs to
	// guarantee Recipes returns the same set after a reopen.
	CommitRecipe(name string, r Recipe) error
	// DeleteRecipe durably records that a named recipe no longer
	// exists (a tombstone in the recipe journal), so Recipes omits it
	// after a reopen. The Store journals the tombstone BEFORE it
	// releases the recipe's chunk references: a crash between the two
	// can leak reference counts (chunks merely stay longer) but can
	// never leave a recovered recipe pointing at released chunks.
	DeleteRecipe(name string) error
	// Recipes returns the recipes recovered at open time (nil when the
	// backing is fresh or non-durable). Ownership of the returned map
	// passes to the caller: the backing must hand out a copy (or nil),
	// never a live view it keeps mutating.
	Recipes() (map[string]Recipe, error)
	// Sync forces everything written so far to durable media.
	Sync() error
	// Close flushes and releases the backing. The Store must not be
	// used afterwards.
	Close() error
}

// BarrierBacking is an optional Backing capability for group commit: a
// backing whose commit points stage and flush but defer their fsync to
// a shared syncer round (persist with CommitWindow switched on) exposes
// Barrier, and the Store calls it once per recipe commit, recipe delete
// and reference release — not per put or pin batch — after releasing
// the stripe locks and the recipe mutex, so concurrent sessions pile
// onto the same round instead of serializing a sync pass each. Barrier
// blocks until every record staged before the call is durable and
// returns the real outcome of the sync pass that covered it.
type BarrierBacking interface {
	Barrier() error
}

// CheckpointEntry is one live index entry handed to a shard checkpoint:
// the full durable state of one chunk at the moment of the checkpoint.
type CheckpointEntry struct {
	Hash     Hash
	Ref      Ref
	Refcount int64
}

// ShardBacking is one stripe of a Backing: an append-only container
// set plus the journal of index mutations applied to it. It answers
// for locations, never for fingerprints: which of them are live is the
// Store's index alone. Recover must be called once, before any other
// method (Store.Open does this).
type ShardBacking interface {
	// Recover replays the shard's durable state, calling fn once per
	// live index entry with its final reference count. A fresh or
	// non-durable shard calls fn zero times.
	Recover(fn func(h Hash, ref Ref, refcount int64) error) error
	// Append stores chunk bytes, packing them into the shard's open
	// container (rolling to a new one when full), and journals the
	// index insert for h. It returns where the bytes landed.
	Append(h Hash, data []byte) (container int, offset int64, err error)
	// LogRefDelta journals a reference-count change for an existing
	// entry: +1 per duplicate hit or pin, -1 per recipe-delete release.
	// Replay drops an entry whose count reaches zero.
	LogRefDelta(h Hash, delta int64) error
	// Commit marks the end of one batch of Append/LogRefDelta calls:
	// the backing flushes its journal, honoring its fsync policy.
	Commit() error
	// Read returns the bytes at a stored location. The slice must stay
	// valid after return (containers are append-only and compaction
	// only ever drops whole containers the index no longer references).
	Read(container int, offset, length int64) ([]byte, error)
	// Containers reports how many container slots the shard has opened
	// (dropped containers keep their slot so refs stay stable).
	Containers() int
	// ContainerLen reports how many bytes container i holds, or -1 for
	// a slot whose container was dropped by compaction.
	ContainerLen(i int) int64
	// Relocate re-packs a surviving chunk's bytes into the shard's open
	// container during compaction, journaling the move (so replay
	// re-points the existing index entry) instead of a fresh insert.
	Relocate(h Hash, data []byte) (container int, offset int64, err error)
	// Checkpoint makes every staged move durable, atomically replaces
	// the shard's journal with one describing exactly the given live
	// entries, and only then drops the listed containers. A crash at
	// any byte leaves either the old journal (all containers still on
	// disk) or the new one (which references none of the dropped
	// containers), never a mix.
	Checkpoint(live []CheckpointEntry, drop []int) error
}
