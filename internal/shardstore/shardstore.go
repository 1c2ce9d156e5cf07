// Package shardstore implements a sharded, lock-striped, concurrency-
// safe content-addressed chunk store: the service-grade successor to
// the single-goroutine dedup.Store. The fingerprint space is split into
// N independent shards keyed by a hash prefix; each shard owns its own
// index, container set and reference counts behind its own lock, so
// concurrent sessions ingesting into disjoint regions of the hash space
// never contend. Aggregate statistics are maintained with atomics and
// are exact whenever the store is quiescent.
//
// Chunk bytes live behind a pluggable Backing: MemoryBacking keeps
// containers in RAM (the default, via New), while internal/persist
// backs them with on-disk container files plus a per-shard write-ahead
// log, so Open rebuilds the exact index, refcounts, recipes and Stats
// after a restart.
//
// The store is fully content-addressed end to end: a Recipe is an
// ordered list of chunk fingerprints, resolved through the index at
// restore time. Physical locations (Refs) are an implementation detail
// the compactor is free to rewrite — DeleteRecipe releases a recipe's
// references (entries reaching zero are dropped from the index), and
// Compact rewrites mostly-dead containers so the reclaimed bytes
// actually return to the operating system.
//
// Ingest semantics are byte-identical to dedup.Store: the same sequence
// of Put calls classifies exactly the same chunks as duplicates,
// produces the same aggregate Stats, and reconstructs streams
// byte-exactly. With a single shard the packing (container/offset/
// length of every ref) is identical to dedup.Store as well; the
// differential test in this package asserts both properties.
package shardstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shredder/internal/dedup"
	"shredder/internal/obs"
)

// Hash is a chunk fingerprint (re-exported so callers need not import
// dedup just for the type).
type Hash = dedup.Hash

// Ref locates a stored chunk: a shard, a container within the shard,
// and a byte range within the container. Refs are valid until the
// compactor moves the chunk; durable identity lives in the fingerprint.
type Ref struct {
	Shard     int
	Container int
	Offset    int64
	Length    int64
}

// Recipe is the ordered list of chunk fingerprints that reconstructs
// one stream. Recipes are content-addressed on purpose: they survive
// compaction (which moves chunk bytes between containers) unchanged,
// and deleting one is exactly a reference-count release per entry.
type Recipe []Hash

// MaxShards bounds the shard count; 1024 shards of independent maps is
// far past the point of diminishing returns for in-memory indexes.
const MaxShards = 1024

// ErrUnknownRecipe reports a DeleteRecipe (or restore) of a stream
// name the store has no recipe for.
var ErrUnknownRecipe = errors.New("shardstore: unknown recipe")

// entry is everything a shard knows about one stored chunk: where its
// bytes live and how many references (recipe entries, pins of streams
// still in flight) hold it. refs is at least 1 for as long as the entry
// is in the index.
type entry struct {
	ref  Ref
	refs int64
}

// spanSink is implemented by backings that can attribute their I/O
// (WAL appends, fsyncs, recipe-journal writes) to the span of the
// request being served. The store installs the active span before
// calling into the backing and clears it afterwards, always under the
// same lock that serializes the backing's mutations, so the backing
// reads it without further synchronization. MemoryBacking does not
// implement it; persist's shards and recipe journal do.
type spanSink interface {
	SetSpan(*obs.Span)
}

// shard is one stripe of the store. All fields but the immutable idx,
// back and sink handles are guarded by mu. index is the only per-chunk
// structure: which fingerprints are live, where, and with how many
// references.
type shard struct {
	mu    sync.RWMutex
	idx   int // this shard's position in Store.shards
	back  ShardBacking
	sink  spanSink // back as a spanSink, nil when unsupported
	index map[Hash]entry
	// live tracks the live (index-referenced) bytes per container, the
	// signal the compactor picks victims by.
	live map[int]int64
}

// setSpan hands the active span to the backing when it cares. The
// caller holds sh.mu (write) and must clear with setSpan(nil) before
// unlocking so a later uninstrumented request is not misattributed.
func (sh *shard) setSpan(sp *obs.Span) {
	if sh.sink != nil {
		sh.sink.SetSpan(sp)
	}
}

// Store is a sharded deduplicating chunk store. All methods are safe
// for concurrent use by any number of goroutines.
type Store struct {
	backing Backing
	shards  []*shard
	mask    uint32

	// Recipes recorded via CommitRecipe, keyed by stream name.
	rmu     sync.RWMutex
	recipes map[string]Recipe

	// Aggregate statistics, maintained atomically.
	logical atomic.Int64
	stored  atomic.Int64
	chunks  atomic.Int64
	unique  atomic.Int64
	hits    atomic.Int64

	// Observability totals (monotonic, unlike the stats above which
	// deletions wind back) and the optional hot-path histogram.
	// missingSeconds is set once by Instrument, before the store serves
	// traffic; nil costs each query one pointer check.
	releases       atomic.Int64
	compactions    atomic.Int64
	compactedBytes atomic.Int64
	movedBytes     atomic.Int64
	missingSeconds *obs.Histogram

	// recipeSink is the backing as a spanSink for the recipe-journal
	// path (nil when the backing does not implement it).
	recipeSink spanSink

	// barrier is the backing's group-commit wait (nil when the backing
	// fsyncs inline). It is always called OUTSIDE the stripe locks and
	// the recipe mutex: waiting out a sync pass under a lock would
	// serialize the very sessions group commit exists to batch.
	barrier func() error
}

// New returns an empty in-memory store with the given shard count (a
// power of two in [1, MaxShards]; 0 means 16) and container size (0
// means dedup.DefaultContainerSize).
func New(shards int, containerSize int64) (*Store, error) {
	b, err := NewMemoryBacking(shards, containerSize)
	if err != nil {
		return nil, err
	}
	return Open(b)
}

// Open builds a store on a backing, replaying the backing's recovered
// state (index entries, refcounts, recipes) into memory and deriving
// the aggregate Stats from it. On a fresh backing this is an empty
// store; on a reopened durable backing it is exactly the store that
// was closed: same duplicate classification, same refs, same Stats.
func Open(b Backing) (*Store, error) {
	n := b.NumShards()
	if n < 1 || n > MaxShards || n&(n-1) != 0 {
		return nil, fmt.Errorf("shardstore: backing has invalid shard count %d", n)
	}
	s := &Store{backing: b, shards: make([]*shard, n), mask: uint32(n - 1)}
	for i := range s.shards {
		sh := &shard{
			idx:   i,
			back:  b.Shard(i),
			index: make(map[Hash]entry),
			live:  make(map[int]int64),
		}
		sh.sink, _ = sh.back.(spanSink)
		err := sh.back.Recover(func(h Hash, ref Ref, rc int64) error {
			if rc < 1 {
				return fmt.Errorf("shardstore: shard %d recovered refcount %d for %x", i, rc, h[:8])
			}
			ref.Shard = i
			sh.index[h] = entry{ref, rc}
			sh.live[ref.Container] += ref.Length
			// Every counter is derivable from the recovered entries: one
			// unique insert plus rc-1 duplicate hits of ref.Length bytes.
			s.unique.Add(1)
			s.stored.Add(ref.Length)
			s.chunks.Add(rc)
			s.logical.Add(rc * ref.Length)
			s.hits.Add(rc - 1)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("shardstore: recover shard %d: %w", i, err)
		}
		s.shards[i] = sh
	}
	recipes, err := b.Recipes()
	if err != nil {
		return nil, fmt.Errorf("shardstore: recover recipes: %w", err)
	}
	// The contract hands ownership of the returned map to the caller
	// (nil for a fresh or non-durable backing).
	s.recipes = recipes
	if s.recipes == nil {
		s.recipes = make(map[string]Recipe)
	}
	s.recipeSink, _ = b.(spanSink)
	if bb, ok := b.(BarrierBacking); ok {
		s.barrier = bb.Barrier
	}
	return s, nil
}

// commitBarrier waits out the backing's group-commit round, if it has
// one, so an ack never outruns durability. It has exactly three callers,
// each after its locks are released: CommitRecipeTraced (the one barrier
// a stream pays — it covers the recipe and every put and pin the stream
// staged before it), DeleteRecipeTraced (tombstone durable before any
// reference is released) and releaseRefs. Puts and pins do not call it:
// nothing is promised about them until their stream commits.
func (s *Store) commitBarrier() error {
	if s.barrier == nil {
		return nil
	}
	return s.barrier()
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// shardFor maps a fingerprint to its shard by high-order prefix.
func (s *Store) shardFor(h Hash) *shard {
	return s.shards[binary.BigEndian.Uint32(h[:4])&s.mask]
}

// Put stores one chunk, returning its location and whether it was a
// duplicate of existing content: a one-element PutBatch. A non-nil
// error means the backing rejected the write (impossible for
// MemoryBacking).
func (s *Store) Put(data []byte) (Ref, bool, error) {
	refs, dup, err := s.PutBatch([][]byte{data})
	return refs[0], dup[0], err
}

// applyDelta applies a journaled ±1 to a held entry; at zero the entry
// leaves the index (its bytes stay in the container until compaction).
// The caller holds sh.mu and has already journaled the delta.
func (sh *shard) applyDelta(h Hash, e entry, delta int64) (dropped bool) {
	if e.refs += delta; e.refs > 0 {
		sh.index[h] = e
		return false
	}
	delete(sh.index, h)
	sh.live[e.ref.Container] -= e.ref.Length
	return true
}

// tally is what one batch mutation applied, in the units the stats fold
// and DeleteStats share: references taken or given back and their logical
// bytes, and how many of them were edges — created an index entry (a
// put's unique insert) or dropped one (a release reaching zero).
type tally struct {
	refs, bytes      int64
	edges, edgeBytes int64
}

// mutate is the one place a batch changes the shards, behind every put,
// pin and release. The fingerprints are grouped by shard so each stripe
// lock is taken at most once; under it, each fingerprint in input order
// takes one step — a journaled delta (±1) on an entry the index holds, an
// Append when it holds none and bodies were given (a put), nothing
// otherwise (a pin's miss; a release of an entry a torn-tail recovery
// already lost) — and a shard that staged any record ends with one
// Commit. For puts and pins refs[i] is where hs[i]'s chunk lives and
// held[i] whether the index had it before the step; a release returns
// neither. On a backing error the batch stops early:
// what was applied stays applied and accounted. A non-nil sp attributes
// the backing's journal writes and fsyncs: to a shard_put child per shard
// for a put, to sp itself for pins and releases.
func (s *Store) mutate(hs []Hash, bodies [][]byte, delta int64, sp *obs.Span) (refs []Ref, held []bool, t tally, err error) {
	if delta > 0 { // a release reports counts only
		refs, held = make([]Ref, len(hs)), make([]bool, len(hs))
	}
	err = s.byShard(hs, func(sh *shard, idxs []int) error {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if sp != nil {
			ssp := sp
			if bodies != nil {
				ssp = sp.Child("shard_put",
					obs.Int("shard", int64(sh.idx)), obs.Int("chunks", int64(len(idxs))))
				defer ssp.End()
			}
			sh.setSpan(ssp)
			defer sh.setSpan(nil)
		}
		staged := false
		for _, i := range idxs {
			h := hs[i]
			e, ok := sh.index[h]
			var edge bool
			switch {
			case ok:
				if err := sh.back.LogRefDelta(h, delta); err != nil {
					return err
				}
				edge = sh.applyDelta(h, e, delta)
			case bodies != nil:
				ci, off, err := sh.back.Append(h, bodies[i])
				if err != nil {
					return err
				}
				e = entry{Ref{Shard: sh.idx, Container: ci, Offset: off, Length: int64(len(bodies[i]))}, 1}
				sh.index[h] = e
				sh.live[ci] += e.ref.Length
				edge = true
			default:
				continue
			}
			staged = true
			if delta > 0 {
				refs[i], held[i] = e.ref, ok
			}
			t.refs++
			t.bytes += e.ref.Length
			if edge {
				t.edges++
				t.edgeBytes += e.ref.Length
			}
		}
		if staged {
			return sh.back.Commit()
		}
		return nil
	})
	// Mirror of the recovery derivation: every reference is one chunk
	// write of its length; an edge is the unique insert (or its undoing),
	// every other reference a duplicate hit (or its undoing).
	s.chunks.Add(delta * t.refs)
	s.logical.Add(delta * t.bytes)
	s.hits.Add(delta * (t.refs - t.edges))
	s.unique.Add(delta * t.edges)
	s.stored.Add(delta * t.edgeBytes)
	if delta < 0 {
		s.releases.Add(t.refs)
	}
	return refs, held, t, err
}

// absent lists the ascending indices a batched lookup did not find.
func absent(found []bool) []int {
	missing := make([]int, 0, len(found))
	for i, ok := range found {
		if !ok {
			missing = append(missing, i)
		}
	}
	return missing
}

// Has reports whether a chunk with fingerprint h is already stored —
// the Matching step (§2.1, step 3) — without writing anything.
func (s *Store) Has(h Hash) (Ref, bool) {
	sh := s.shardFor(h)
	sh.mu.RLock()
	e, ok := sh.index[h]
	sh.mu.RUnlock()
	return e.ref, ok
}

// HasBatch answers one Matching query per fingerprint, grouping the
// queries by shard so each stripe lock is taken at most once.
func (s *Store) HasBatch(hs []Hash) []bool {
	out := make([]bool, len(hs))
	_ = s.byShard(hs, func(sh *shard, idxs []int) error {
		sh.mu.RLock()
		for _, i := range idxs {
			_, out[i] = sh.index[hs[i]]
		}
		sh.mu.RUnlock()
		return nil
	})
	return out
}

// Missing is the batched negative Matching query: it returns the
// ascending indices into hs of the fingerprints the store has no chunk
// for. It is read-only and racy by nature — a fingerprint reported
// missing may be inserted by a concurrent session a microsecond later
// — so the ingest protocol's missing-set answer uses PinBatch instead.
func (s *Store) Missing(hs []Hash) []int {
	if h := s.missingSeconds; h != nil {
		defer h.ObserveSince(time.Now())
	}
	return absent(s.HasBatch(hs))
}

// PinBatch answers a batched Matching query while taking one reference
// on every fingerprint it answers "present" for, under that shard's
// stripe lock and journaled like any duplicate hit. This is the
// primitive behind the ingest protocol's HasBatch: by the time the
// server tells a client to skip a chunk body, the stream's reference
// is already counted, so no concurrent reclaim — DeleteRecipe or the
// compactor — can free the chunk between the answer and the stream's
// recipe commit. Present fingerprints get their Ref in refs and are
// accounted exactly like a duplicate Put; absent ones come back as
// ascending indices in missing with a zero Ref. On a backing error the
// batch stops early: pins already applied stay applied (and accounted).
// Under group commit the pins' journal records are written through but
// not yet awaited: they become durable with the stream's CommitRecipe
// (or with the Release that gives them back).
func (s *Store) PinBatch(hs []Hash) (refs []Ref, missing []int, err error) {
	return s.PinBatchTraced(hs, nil)
}

// PinBatchTraced is PinBatch attributed to a span: the backing's WAL
// appends and fsyncs for the pins become children of sp, and the
// latency observation carries sp's trace as its bucket exemplar. A nil
// sp is exactly PinBatch.
func (s *Store) PinBatchTraced(hs []Hash, sp *obs.Span) (refs []Ref, missing []int, err error) {
	if h := s.missingSeconds; h != nil {
		defer h.ObserveSinceExemplar(time.Now(), sp.Trace())
	}
	refs, found, _, err := s.mutate(hs, nil, 1, sp)
	return refs, absent(found), err
}

// PutBatch stores a batch of chunks in order, grouping the inserts by
// shard so each stripe lock is taken at most once per batch. Refs and
// duplicate flags come back in input order. The classification is
// identical to calling Put sequentially: a chunk repeated within the
// batch maps to the same shard and is seen there in input order. On a
// backing error the batch stops early: chunks already applied stay
// applied (and accounted), the rest of the refs are zero.
func (s *Store) PutBatch(chunks [][]byte) ([]Ref, []bool, error) {
	return s.PutHashedBatch(sums(chunks), chunks)
}

// sums fingerprints every chunk of a batch.
func sums(chunks [][]byte) []Hash {
	hs := make([]Hash, len(chunks))
	for i, c := range chunks {
		hs[i] = dedup.Sum(c)
	}
	return hs
}

// PutHashedBatch is PutBatch for callers that already hold the
// fingerprints — the ingest server's body-upload path, which hashed
// every uploaded chunk to verify it against the client's announcement.
// Each hs[i] MUST be dedup.Sum(chunks[i]); storing under any other
// address would corrupt every stream that later dedups against it, so
// callers ingesting untrusted bytes verify first.
//
// Durability: a backing that fsyncs inline makes the batch durable
// before this returns. Under group commit the batch is written through
// to the backing's files but no sync round is awaited — the chunks and
// references become durable at the CommitRecipe of the stream they
// belong to, which is the first point anything is acknowledged; a caller
// that needs them durable without a recipe calls Sync.
func (s *Store) PutHashedBatch(hs []Hash, chunks [][]byte) ([]Ref, []bool, error) {
	return s.PutHashedBatchTraced(hs, chunks, nil)
}

// PutHashedBatchTraced is PutHashedBatch attributed to a span: each
// shard's slice of the batch runs under a shard_put child span, and
// the backing's WAL appends and fsyncs nest under it. A nil sp is
// exactly PutHashedBatch.
func (s *Store) PutHashedBatchTraced(hs []Hash, chunks [][]byte, sp *obs.Span) ([]Ref, []bool, error) {
	if len(hs) != len(chunks) {
		return nil, nil, fmt.Errorf("shardstore: %d fingerprints for %d chunks", len(hs), len(chunks))
	}
	refs, dup, _, err := s.mutate(hs, chunks, 1, sp)
	return refs, dup, err
}

// byShard partitions hash indices by destination shard and invokes fn
// once per non-empty shard, preserving input order within each group.
// It stops at the first error.
func (s *Store) byShard(hs []Hash, fn func(sh *shard, idxs []int) error) error {
	if len(hs) == 0 {
		return nil
	}
	groups := make(map[uint32][]int, len(s.shards))
	for i, h := range hs {
		si := binary.BigEndian.Uint32(h[:4]) & s.mask
		groups[si] = append(groups[si], i)
	}
	for si, idxs := range groups {
		if err := fn(s.shards[si], idxs); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the bytes of a stored chunk. The returned slice is a
// read-only view (for MemoryBacking, into the shard's container; for a
// durable backing, a fresh read) and stays valid because containers
// are append-only and only dropped once the index no longer references
// them.
func (s *Store) Get(ref Ref) ([]byte, error) {
	if ref.Shard < 0 || ref.Shard >= len(s.shards) {
		return nil, fmt.Errorf("shardstore: shard %d out of range", ref.Shard)
	}
	sh := s.shards[ref.Shard]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.back.Read(ref.Container, ref.Offset, ref.Length)
}

// GetByHash resolves a fingerprint through the index and returns the
// chunk's bytes — the content-addressed read the restore path uses, so
// recipes stay valid when compaction moves chunks. ok is false when the
// store holds no chunk for h.
func (s *Store) GetByHash(h Hash) (data []byte, ok bool, err error) {
	sh := s.shardFor(h)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.index[h]
	if !ok {
		return nil, false, nil
	}
	data, err = sh.back.Read(e.ref.Container, e.ref.Offset, e.ref.Length)
	return data, true, err
}

// Stats returns the aggregate statistics. Each field is maintained
// atomically; when the store is quiescent the snapshot is exact and
// equal to what dedup.Store would report for the same inputs (and,
// after deletions, to what a store that never saw the deleted streams
// would report).
func (s *Store) Stats() dedup.Stats {
	return dedup.Stats{
		LogicalBytes: s.logical.Load(),
		StoredBytes:  s.stored.Load(),
		Chunks:       s.chunks.Load(),
		UniqueChunks: s.unique.Load(),
		IndexHits:    s.hits.Load(),
	}
}

// Containers returns the total number of container slots across all
// shards (slots dropped by compaction still count; refs stay stable).
func (s *Store) Containers() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += sh.back.Containers()
		sh.mu.RUnlock()
	}
	return total
}

// Refcount returns the current reference count for a fingerprint.
func (s *Store) Refcount(h Hash) int64 {
	sh := s.shardFor(h)
	sh.mu.RLock()
	n := sh.index[h].refs
	sh.mu.RUnlock()
	return n
}

// WriteStream stores an already-chunked stream, returning its recipe
// and the number of duplicate chunks.
func (s *Store) WriteStream(chunks [][]byte) (Recipe, int, error) {
	hs := sums(chunks)
	_, dup, err := s.PutHashedBatch(hs, chunks)
	if err != nil {
		return nil, 0, err
	}
	dups := 0
	for _, d := range dup {
		if d {
			dups++
		}
	}
	return Recipe(hs), dups, nil
}

// CommitRecipe records a named stream recipe, durably if the backing
// is. A recommitted name replaces the previous recipe AND releases the
// replaced recipe's references, exactly like deleting it — a client
// re-backing-up under a fixed name must not pin last night's chunks
// forever. The new recipe is journaled (replay is last-wins) before
// the old references are released, so a crash in between leaks
// references but never leaves the surviving recipe dangling.
func (s *Store) CommitRecipe(name string, r Recipe) error {
	return s.CommitRecipeTraced(name, r, nil)
}

// CommitRecipeTraced is CommitRecipe attributed to a span: the recipe
// journal append and its fsync become children of sp, as does the
// release of a replaced recipe's references. A nil sp is exactly
// CommitRecipe.
func (s *Store) CommitRecipeTraced(name string, r Recipe, sp *obs.Span) error {
	s.rmu.Lock()
	if sp != nil && s.recipeSink != nil {
		s.recipeSink.SetSpan(sp)
	}
	old, replaced := s.recipes[name]
	err := s.backing.CommitRecipe(name, r)
	if sp != nil && s.recipeSink != nil {
		s.recipeSink.SetSpan(nil)
	}
	if err != nil {
		s.rmu.Unlock()
		return err
	}
	s.recipes[name] = r
	s.rmu.Unlock()
	// The barrier runs after the recipe mutex is released so concurrent
	// commits share one group round; the new recipe is durable before
	// either the ack or the release of the replaced recipe's refs.
	if err := s.commitBarrier(); err != nil {
		return err
	}
	if !replaced {
		return nil
	}
	_, err = s.releaseRefs(old, sp)
	return err
}

// DeleteStats reports what one DeleteRecipe released.
type DeleteStats struct {
	// ChunksReleased counts the references given back (one per recipe
	// entry that resolved to a live chunk).
	ChunksReleased int64
	// ChunksFreed counts the entries whose reference count reached
	// zero and left the index; BytesFreed is their total size — bytes
	// the next compaction pass can return to the operating system.
	ChunksFreed int64
	BytesFreed  int64
}

// DeleteRecipe removes a named recipe and releases one reference per
// entry, dropping chunks whose count reaches zero from the index (the
// bytes are reclaimed by Compact). The tombstone is journaled before
// any reference is released, so a crash mid-delete can leak reference
// counts (chunks linger) but never leaves a recoverable recipe pointing
// at released chunks. Concurrent ingest is safe: the dedup wire path
// pins every skipped chunk's refcount inside the lookup, so a stream
// told to skip a body holds its reference before this release can run.
func (s *Store) DeleteRecipe(name string) (DeleteStats, error) {
	return s.DeleteRecipeTraced(name, nil)
}

// DeleteRecipeTraced is DeleteRecipe attributed to a span: the
// tombstone append, its fsync, and the per-shard reference release all
// become children of sp. A nil sp is exactly DeleteRecipe.
func (s *Store) DeleteRecipeTraced(name string, sp *obs.Span) (DeleteStats, error) {
	s.rmu.Lock()
	r, ok := s.recipes[name]
	if !ok {
		s.rmu.Unlock()
		return DeleteStats{}, fmt.Errorf("%w: %q", ErrUnknownRecipe, name)
	}
	if sp != nil && s.recipeSink != nil {
		s.recipeSink.SetSpan(sp)
	}
	err := s.backing.DeleteRecipe(name)
	if sp != nil && s.recipeSink != nil {
		s.recipeSink.SetSpan(nil)
	}
	if err != nil {
		s.rmu.Unlock()
		return DeleteStats{}, err
	}
	delete(s.recipes, name)
	s.rmu.Unlock()
	// Tombstone-before-release must hold under group commit too: only
	// after the barrier reports the tombstone durable may the reference
	// decrements be staged.
	if err := s.commitBarrier(); err != nil {
		return DeleteStats{}, err
	}
	return s.releaseRefs(r, sp)
}

// Release gives back references that were counted but will never be
// committed in a recipe — the ingest server's cleanup when a stream
// dies between its pins/puts and its commit. r lists one entry per
// reference actually applied (pins and stored bodies alike); entries
// reaching zero leave the index and their bytes become reclaimable by
// Compact. Without this, every aborted dedup stream would pin its
// chunks forever.
func (s *Store) Release(r Recipe) (DeleteStats, error) {
	return s.releaseRefs(r, nil)
}

// releaseRefs gives back one reference per recipe entry; entries reaching
// zero leave the index. Shared by Release, DeleteRecipe and recipe
// replacement. A non-nil sp attributes each shard's journal writes to
// the span.
func (s *Store) releaseRefs(r Recipe, sp *obs.Span) (DeleteStats, error) {
	_, _, t, err := s.mutate(r, nil, -1, sp)
	if err == nil {
		err = s.commitBarrier()
	}
	return DeleteStats{ChunksReleased: t.refs, ChunksFreed: t.edges, BytesFreed: t.edgeBytes}, err
}

// CompactStats summarizes one compaction pass.
type CompactStats struct {
	// Containers is how many containers were reclaimed (rewritten away
	// or already fully dead); ReclaimedBytes is the dead space that
	// went with them, MovedBytes the live bytes rewritten into fresh
	// containers to get there.
	Containers     int
	ReclaimedBytes int64
	MovedBytes     int64
}

// Compact rewrites mostly-dead containers: for every shard, containers
// whose live fraction is below threshold (plus fully-dead ones at any
// threshold) have their surviving chunks re-packed into the shard's
// open container, the moves journaled, the journal checkpointed, and
// only then are the old containers dropped. The index, all recipes and
// the Stats are unchanged — recipes address chunks by fingerprint, so
// a moved chunk restores identically. Each shard is compacted under
// its stripe lock; other shards keep serving throughout. A crash at
// any byte recovers to a consistent state: the moves are durable
// before the checkpoint, and the checkpoint is durable before any
// container is unlinked.
func (s *Store) Compact(threshold float64) (CompactStats, error) {
	return s.CompactTraced(threshold, nil)
}

// CompactTraced is Compact attributed to a span: each shard pass that
// actually reclaims containers runs under a compact_shard child span
// (victims, reclaimed and moved bytes as attributes), with the
// backing's relocation WAL traffic and checkpoint fsyncs nested under
// it. A nil sp is exactly Compact.
func (s *Store) CompactTraced(threshold float64, sp *obs.Span) (CompactStats, error) {
	var total CompactStats
	for _, sh := range s.shards {
		cs, err := s.compactShard(sh, threshold, sp)
		total.Containers += cs.Containers
		total.ReclaimedBytes += cs.ReclaimedBytes
		total.MovedBytes += cs.MovedBytes
		if err != nil {
			s.accountCompact(total)
			return total, err
		}
	}
	s.accountCompact(total)
	return total, nil
}

// accountCompact folds one pass's results into the observability
// totals (partial passes count what they actually reclaimed).
func (s *Store) accountCompact(cs CompactStats) {
	s.compactions.Add(1)
	s.compactedBytes.Add(cs.ReclaimedBytes)
	s.movedBytes.Add(cs.MovedBytes)
}

// compactShard runs one shard's pass; see Compact.
func (s *Store) compactShard(sh *shard, threshold float64, sp *obs.Span) (CompactStats, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := sh.back.Containers()
	if n == 0 {
		return CompactStats{}, nil
	}
	// The open container (the one Append packs into) is never a victim:
	// it is still filling and relocating into itself is busywork.
	open := n - 1
	var victims []int
	victimSet := make(map[int]bool)
	var cs CompactStats
	for ci := 0; ci < n; ci++ {
		if ci == open {
			continue
		}
		size := sh.back.ContainerLen(ci)
		if size < 0 {
			continue // already dropped
		}
		live := sh.live[ci]
		if live == 0 || float64(live) < threshold*float64(size) {
			victims = append(victims, ci)
			victimSet[ci] = true
			cs.ReclaimedBytes += size - live
		}
	}
	if len(victims) == 0 {
		return CompactStats{}, nil
	}
	if sp != nil {
		csp := sp.Child("compact_shard",
			obs.Int("shard", int64(sh.idx)), obs.Int("victims", int64(len(victims))))
		defer func() {
			csp.Set(obs.Int("reclaimed_bytes", cs.ReclaimedBytes), obs.Int("moved_bytes", cs.MovedBytes))
			csp.End()
		}()
		sh.setSpan(csp)
		defer sh.setSpan(nil)
	}
	// Re-pack every surviving chunk of the victim containers into the
	// open container, updating the index as we go. Relocate journals
	// each move, so a crash before the checkpoint replays them (and a
	// torn move is simply dropped — the old container still exists).
	for h, e := range sh.index {
		ref := e.ref
		if !victimSet[ref.Container] {
			continue
		}
		data, err := sh.back.Read(ref.Container, ref.Offset, ref.Length)
		if err != nil {
			return cs, err
		}
		ci, off, err := sh.back.Relocate(h, data)
		if err != nil {
			return cs, err
		}
		sh.live[ref.Container] -= ref.Length
		newRef := Ref{Shard: sh.idx, Container: ci, Offset: off, Length: ref.Length}
		sh.index[h] = entry{newRef, e.refs}
		sh.live[ci] += ref.Length
		cs.MovedBytes += ref.Length
	}
	live := make([]CheckpointEntry, 0, len(sh.index))
	for h, e := range sh.index {
		live = append(live, CheckpointEntry{Hash: h, Ref: e.ref, Refcount: e.refs})
	}
	if err := sh.back.Checkpoint(live, victims); err != nil {
		return cs, err
	}
	for _, ci := range victims {
		delete(sh.live, ci)
	}
	cs.Containers = len(victims)
	return cs, nil
}

// Recipe returns the recorded recipe for a stream name.
func (s *Store) Recipe(name string) (Recipe, bool) {
	s.rmu.RLock()
	r, ok := s.recipes[name]
	s.rmu.RUnlock()
	return r, ok
}

// RecipeNames returns every recorded stream name, sorted.
func (s *Store) RecipeNames() []string {
	s.rmu.RLock()
	names := make([]string, 0, len(s.recipes))
	for n := range s.recipes {
		names = append(names, n)
	}
	s.rmu.RUnlock()
	sort.Strings(names)
	return names
}

// Reconstruct concatenates a recipe's chunks back into the original
// stream, resolving each fingerprint through the index. A fingerprint
// with no live chunk (lost to a torn-tail recovery, or released by a
// concurrent delete of every referencing recipe) fails loudly rather
// than returning wrong bytes.
func (s *Store) Reconstruct(r Recipe) ([]byte, error) {
	// Pre-size the output: map lookups are far cheaper than the
	// repeated grow-and-copy of appending a large stream blind.
	var total int64
	for _, h := range r {
		if ref, ok := s.Has(h); ok {
			total += ref.Length
		}
	}
	out := make([]byte, 0, total)
	for i, h := range r {
		data, ok, err := s.GetByHash(h)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("shardstore: recipe entry %d: no chunk for %x", i, h[:8])
		}
		out = append(out, data...)
	}
	return out, nil
}

// ContainerUsage reports the store's physical footprint: live container
// slots, the bytes the index still references, and the total container
// bytes on the backing. total-live is the dead space a compaction pass
// could reclaim — the GC-debt signal the daemon exports.
func (s *Store) ContainerUsage() (containers int, liveBytes, totalBytes int64) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		n := sh.back.Containers()
		for ci := 0; ci < n; ci++ {
			size := sh.back.ContainerLen(ci)
			if size < 0 {
				continue // dropped slot
			}
			containers++
			totalBytes += size
		}
		for _, lb := range sh.live {
			liveBytes += lb
		}
		sh.mu.RUnlock()
	}
	return containers, liveBytes, totalBytes
}

// indexEntries counts live index entries across all shards.
func (s *Store) indexEntries() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += int64(len(sh.index))
		sh.mu.RUnlock()
	}
	return n
}

// Instrument registers the store's metric families on reg and arms the
// hot-path Missing/PinBatch latency histogram. Everything except that
// histogram is evaluated at scrape time from state the store maintains
// anyway, so instrumentation costs ingest nothing. Call once, before
// the store serves traffic; a nil registry is a no-op.
func (s *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("shardstore_chunks_total",
		"Chunk writes accepted (unique inserts plus duplicate hits), net of releases.",
		func() float64 { return float64(s.chunks.Load()) })
	reg.CounterFunc("shardstore_dup_hits_total",
		"Chunk writes resolved as duplicates of stored content, net of releases.",
		func() float64 { return float64(s.hits.Load()) })
	reg.CounterFunc("shardstore_releases_total",
		"Chunk references given back by deletes, recipe replacement and aborted streams.",
		func() float64 { return float64(s.releases.Load()) })
	reg.CounterFunc("shardstore_compactions_total",
		"Compaction passes completed (partial passes included).",
		func() float64 { return float64(s.compactions.Load()) })
	reg.CounterFunc("shardstore_compact_reclaimed_bytes_total",
		"Dead container bytes returned to the backing by compaction.",
		func() float64 { return float64(s.compactedBytes.Load()) })
	reg.CounterFunc("shardstore_compact_moved_bytes_total",
		"Live bytes rewritten into fresh containers by compaction.",
		func() float64 { return float64(s.movedBytes.Load()) })
	reg.GaugeFunc("shardstore_logical_bytes",
		"Logical bytes the live streams represent.",
		func() float64 { return float64(s.logical.Load()) })
	reg.GaugeFunc("shardstore_stored_bytes",
		"Unique bytes the index references.",
		func() float64 { return float64(s.stored.Load()) })
	reg.GaugeFunc("shardstore_index_entries",
		"Live fingerprint index entries (one per stored chunk) across all shards.",
		func() float64 { return float64(s.indexEntries()) })
	reg.GaugeFunc("shardstore_recipes",
		"Recorded stream recipes.",
		func() float64 {
			s.rmu.RLock()
			n := len(s.recipes)
			s.rmu.RUnlock()
			return float64(n)
		})
	reg.GaugeFunc("shardstore_containers",
		"Live container slots across all shards.",
		func() float64 { c, _, _ := s.ContainerUsage(); return float64(c) })
	reg.GaugeFunc("shardstore_container_live_bytes",
		"Container bytes the index still references.",
		func() float64 { _, live, _ := s.ContainerUsage(); return float64(live) })
	reg.GaugeFunc("shardstore_container_dead_bytes",
		"Container bytes no longer referenced (reclaimable by compaction).",
		func() float64 { _, live, total := s.ContainerUsage(); return float64(total - live) })
	s.missingSeconds = reg.Histogram("shardstore_missing_seconds",
		"Latency of batched Matching queries (Missing and PinBatch).", obs.LatencyBuckets)
}

// Sync forces everything written so far onto durable media (a no-op
// for MemoryBacking).
func (s *Store) Sync() error { return s.backing.Sync() }

// Close flushes and releases the backing. The store must not be used
// afterwards.
func (s *Store) Close() error { return s.backing.Close() }
