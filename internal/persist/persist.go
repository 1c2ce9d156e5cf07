// Package persist is the durable backing for shardstore.Store: an
// on-disk, crash-recoverable persistence layer for the shredderd
// dedup service. Each shard of the fingerprint space owns a directory
// holding append-only container files (the chunk bytes) and a
// write-ahead log journaling every index mutation — inserts, refcount
// deltas — as length+CRC-framed records; stream recipes are journaled
// in a store-level log with the same codec. Both logs are one type,
// journal (journal.go): the only code that opens, appends to, fsyncs or
// rewrites a journal file, with one atomic replace — temp file, fsync,
// rename, directory fsync — that the shard checkpoint, the recipe log's
// compaction and MANIFEST's creation all go through, and one sticky
// fail-stop when a rewrite dies past its point of no return. Opening an
// existing data directory replays the logs against the container bytes
// actually on disk, tolerating a torn final record (the tail past the
// last clean record is truncated away, files land back on a consistent
// boundary), and rebuilds exactly the index, refcounts, recipes and Stats
// the store had at the journal's horizon.
//
// Durability is governed by an FsyncPolicy: FsyncAlways makes every
// acknowledged batch and recipe commit crash-durable, FsyncInterval
// bounds the loss window with a background fsync loop, FsyncNever
// leaves it to the page cache (still safe against process death).
//
// Layout of a data directory:
//
//	<dir>/MANIFEST          shard count + container size, fixed at creation
//	<dir>/recipes.wal       store-level recipe journal
//	<dir>/shard-0000/wal    per-shard write-ahead log
//	<dir>/shard-0000/c-000000.dat
//	<dir>/shard-0000/c-000001.dat ...
package persist

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"shredder/internal/dedup"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// Options configures a data directory. On first open they fix the
// layout (and are written to MANIFEST); on reopen zero values adopt
// the manifest and non-zero values must match it.
type Options struct {
	// Shards is the shard count (a power of two in [1,
	// shardstore.MaxShards]; 0 means 16 on creation, manifest value on
	// reopen).
	Shards int
	// ContainerSize caps each container file (0 means
	// dedup.DefaultContainerSize on creation, manifest value on reopen).
	ContainerSize int64
	// Fsync is the durability policy (zero value is FsyncAlways).
	Fsync FsyncPolicy
	// VerifyOnRecover re-hashes every chunk during recovery and treats
	// a fingerprint mismatch like a torn record (replay stops there and
	// the tail is cut). This catches container bytes the filesystem
	// lost in ways a size check cannot see (e.g. zero-filled pages
	// after power loss under relaxed fsync), at the cost of reading and
	// hashing every stored byte at open.
	VerifyOnRecover bool
	// CommitWindow is a switch, not a duration to wait: any positive value
	// under FsyncAlways turns on group commit, 0 fsyncs inline at every
	// commit point. Nothing sleeps the value; the name and Duration type
	// stay for the callers that pass it (shredderd's -commit-window). With
	// group commit, commit points stage and flush their records but leave the
	// fsync to a shared syncer goroutine, which starts a pass the moment a
	// Barrier caller is waiting and none is in flight; callers arriving
	// before the pass locks the recipe journal ride it, later ones share
	// the next. Callers regain the durable-before-ack guarantee through
	// Barrier, which blocks until the sync round covering their records has
	// completed and returns its real outcome — shardstore calls it once per
	// recipe commit, delete and reference release, so a stream's puts and
	// pins become durable at its commit, not batch by batch. Ignored under
	// FsyncInterval and FsyncNever.
	CommitWindow time.Duration
	// Logger receives persistence warnings (today: a failing background
	// fsync under FsyncInterval). Nil means slog.Default().
	Logger *slog.Logger
	// Obs, when set, receives the backing's persistence metric families
	// (WAL appends, fsync count and latency, recovery time, checkpoint
	// count). Nil means no instrumentation.
	Obs *obs.Registry
}

// Backing is the durable shardstore.Backing rooted at one data
// directory. Obtain one with Open, hand it to shardstore.Open (or use
// OpenStore for both), and Close it when done — Close flushes and
// fsyncs everything regardless of policy, so a clean shutdown is
// always fully durable.
type Backing struct {
	dir    string
	opts   Options
	shards []*diskShard
	met    pmetrics
	logger *slog.Logger
	// group is the group-commit syncer (FsyncAlways + CommitWindow > 0);
	// nil means every commit point fsyncs inline and Barrier is a no-op.
	group *groupCommitter

	rmu       sync.Mutex
	span      *obs.Span // active request span for recipe-journal I/O
	recipeLog journal
	// recipes is the live recipe set (recovered at open, maintained by
	// CommitRecipe/DeleteRecipe) and rsizes the framed journal bytes
	// each live name currently occupies; rlive is their running sum —
	// together they tell the journal compactor how much of the log is
	// dead without rescanning the map on every commit.
	recipes map[string]shardstore.Recipe
	rsizes  map[string]int64
	rlive   int64

	tickStop chan struct{}
	tickDone chan struct{}

	closeMu sync.Mutex
	closed  bool
}

const (
	manifestName  = "MANIFEST"
	recipeLogName = "recipes.wal"
	// manifestVersion 2 switched recipes to content-addressed
	// fingerprint lists (v1 journaled physical refs, which compaction
	// would invalidate).
	manifestVersion = 2
)

// recipeLogSlack is how many dead bytes the recipe journal tolerates
// before a delete or replace triggers a rewrite: the log is compacted
// when it exceeds this floor and less than half of it is live.
const recipeLogSlack = 64 << 10

// Open creates or reopens a data directory.
func Open(dir string, opts Options) (*Backing, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	adopted, err := loadOrCreateManifest(dir, opts)
	if err != nil {
		return nil, err
	}
	opts.Shards, opts.ContainerSize = adopted.Shards, adopted.ContainerSize
	b := &Backing{dir: dir, opts: opts, shards: make([]*diskShard, opts.Shards)}
	b.logger = opts.Logger
	if b.logger == nil {
		b.logger = slog.Default()
	}
	always := opts.Fsync.Mode == FsyncAlways
	grouped := always && opts.CommitWindow > 0
	for i := range b.shards {
		b.shards[i] = newDiskShard(dir, i, opts.ContainerSize, always, grouped, opts.VerifyOnRecover, &b.met)
	}
	if err := b.openRecipes(); err != nil {
		return nil, err
	}
	if grouped {
		b.group = newGroupCommitter(b)
	}
	if opts.Fsync.Mode == FsyncInterval {
		iv := opts.Fsync.Interval
		if iv <= 0 {
			iv = DefaultFsyncInterval
		}
		b.tickStop = make(chan struct{})
		b.tickDone = make(chan struct{})
		go b.fsyncLoop(iv)
	}
	b.Instrument(opts.Obs)
	return b, nil
}

// OpenStore opens the data directory and a store on top of it in one
// step, closing the backing if recovery fails.
func OpenStore(dir string, opts Options) (*shardstore.Store, error) {
	b, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	st, err := shardstore.Open(b)
	if err != nil {
		_ = b.Close()
		return nil, err
	}
	return st, nil
}

// loadOrCreateManifest reads the manifest, creating it on first open
// (through replaceFile, so no crash leaves a MANIFEST that is not whole),
// and reconciles it with the options.
func loadOrCreateManifest(dir string, opts Options) (Options, error) {
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		var version, shards int
		var containerSize int64
		if _, serr := fmt.Sscanf(string(raw), "shredder-persist v%d\nshards %d\ncontainer-size %d\n",
			&version, &shards, &containerSize); serr != nil {
			return Options{}, fmt.Errorf("persist: malformed manifest %s: %w", path, serr)
		}
		if version == 1 {
			return Options{}, fmt.Errorf("persist: data dir %s is format v1 (location-addressed recipes, predates GC); re-ingest into a fresh directory", dir)
		}
		if version != manifestVersion {
			return Options{}, fmt.Errorf("persist: manifest version %d not supported", version)
		}
		if opts.Shards != 0 && opts.Shards != shards {
			return Options{}, fmt.Errorf("persist: data dir has %d shards, options ask for %d", shards, opts.Shards)
		}
		if opts.ContainerSize != 0 && opts.ContainerSize != containerSize {
			return Options{}, fmt.Errorf("persist: data dir has container size %d, options ask for %d", containerSize, opts.ContainerSize)
		}
		return Options{Shards: shards, ContainerSize: containerSize}, nil
	case os.IsNotExist(err):
		if opts.Shards == 0 {
			opts.Shards = 16
		}
		if opts.Shards < 1 || opts.Shards > shardstore.MaxShards || opts.Shards&(opts.Shards-1) != 0 {
			return Options{}, fmt.Errorf("persist: shard count %d is not a power of two in [1, %d]", opts.Shards, shardstore.MaxShards)
		}
		if opts.ContainerSize < 0 {
			return Options{}, fmt.Errorf("persist: negative container size %d", opts.ContainerSize)
		}
		if opts.ContainerSize == 0 {
			opts.ContainerSize = dedup.DefaultContainerSize
		}
		body := fmt.Sprintf("shredder-persist v%d\nshards %d\ncontainer-size %d\n", manifestVersion, opts.Shards, opts.ContainerSize)
		if _, err := replaceFile(path, nil, []byte(body)); err != nil {
			return Options{}, err
		}
		return opts, nil
	default:
		return Options{}, err
	}
}

// openRecipes opens the recipe journal and replays it — commits and
// tombstones, last record per name wins — truncating a torn tail just
// like a shard WAL.
func (b *Backing) openRecipes() error {
	recipes := make(map[string]shardstore.Recipe)
	rsizes := make(map[string]int64)
	log, err := openJournal(filepath.Join(b.dir, recipeLogName), func(body []byte) error {
		if len(body) == 0 {
			return errTornRecord
		}
		switch body[0] {
		case recRecipe:
			name, r, derr := decodeRecipe(body)
			if derr != nil {
				return errTornRecord
			}
			recipes[name] = r
			rsizes[name] = int64(recHeaderSize + len(body))
		case recRecipeDelete:
			name, derr := decodeRecipeDelete(body)
			if derr != nil {
				return errTornRecord
			}
			delete(recipes, name)
			delete(rsizes, name)
		default:
			return errTornRecord
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.recipeLog = log
	b.recipes = recipes
	b.rsizes = rsizes
	b.rlive = 0
	for _, n := range rsizes {
		b.rlive += n
	}
	return nil
}

// NumShards reports the manifest's shard count.
func (b *Backing) NumShards() int { return len(b.shards) }

// Shard returns stripe i's backing.
func (b *Backing) Shard(i int) shardstore.ShardBacking { return b.shards[i] }

// SetSpan installs (or, with nil, clears) the span the recipe
// journal's appends and fsyncs should attach to — shardstore's
// spanSink hook for the CommitRecipe/DeleteRecipe path.
func (b *Backing) SetSpan(sp *obs.Span) {
	b.rmu.Lock()
	b.span = sp
	b.rmu.Unlock()
}

// CommitRecipe journals one named recipe; under FsyncAlways it is
// crash-durable before the call returns. A recipe too large to frame
// is rejected up front — recovery would read an oversized record as a
// torn tail, silently dropping it and every recipe after it.
func (b *Backing) CommitRecipe(name string, r shardstore.Recipe) error {
	body := encodeRecipe(name, r)
	if len(body) > maxRecordSize {
		return fmt.Errorf("persist: recipe %q encodes to %d bytes, over the %d-byte record limit", name, len(body), maxRecordSize)
	}
	b.rmu.Lock()
	defer b.rmu.Unlock()
	if err := b.appendRecipeRecordLocked(body); err != nil {
		return err
	}
	b.recipes[name] = r
	size := int64(recHeaderSize + len(body))
	b.rlive += size - b.rsizes[name]
	b.rsizes[name] = size
	return b.maybeCompactRecipeLogLocked()
}

// DeleteRecipe journals a recipe tombstone; under FsyncAlways it is
// crash-durable before the call returns — which is what lets the store
// release the recipe's chunk references afterwards without ever
// leaving a recoverable recipe that points at released chunks.
func (b *Backing) DeleteRecipe(name string) error {
	b.rmu.Lock()
	defer b.rmu.Unlock()
	if err := b.appendRecipeRecordLocked(encodeRecipeDelete(name)); err != nil {
		return err
	}
	delete(b.recipes, name)
	b.rlive -= b.rsizes[name]
	delete(b.rsizes, name)
	return b.maybeCompactRecipeLogLocked()
}

// appendRecipeRecordLocked frames body onto the journal, honoring the
// fsync policy. Under group commit the inline fsync is skipped: the
// record becomes durable at the next syncer round, which the store
// waits for (Barrier) before acking. The caller holds b.rmu.
func (b *Backing) appendRecipeRecordLocked(body []byte) error {
	if err := b.met.syncFailed(); err != nil {
		return err
	}
	if b.span != nil {
		defer b.span.Child("recipe_append", obs.Int("bytes", int64(len(body)))).End()
	}
	rec := appendRecord(nil, body)
	if err := b.recipeLog.append(rec); err != nil {
		return err
	}
	b.met.recipeRecords.Add(1)
	b.met.flushedBytes.Add(int64(len(rec)))
	if b.opts.Fsync.Mode == FsyncAlways && b.group == nil {
		return b.recipeLog.sync(&b.met, b.span)
	}
	return nil
}

// maybeCompactRecipeLogLocked rewrites the recipe journal when most of
// it is dead bytes (replaced commits and tombstones): the live set is
// written to a temp file, fsynced, and atomically renamed over the
// journal, so retention churn cannot grow the log without bound. The
// rewrite makes every live recipe durable — the one just appended and any
// still waiting for their sync round included — so it keeps Sync's
// invariant the way Sync does: a shard pass first, under the b.rmu the
// caller already holds, and no recipe is more durable than the inserts
// and +1 refdeltas it references.
func (b *Backing) maybeCompactRecipeLogLocked() error {
	if b.recipeLog.size <= recipeLogSlack || b.recipeLog.size <= 2*b.rlive {
		return nil
	}
	if err := b.syncShards(); err != nil {
		return err
	}
	var buf []byte
	sizes := make(map[string]int64, len(b.recipes))
	for name, r := range b.recipes {
		body := encodeRecipe(name, r)
		sizes[name] = int64(recHeaderSize + len(body))
		buf = appendRecord(buf, body)
	}
	if err := b.recipeLog.rewrite(buf); err != nil {
		return err
	}
	b.rsizes = sizes
	b.rlive = int64(len(buf)) // a fresh journal is 100% live records
	return nil
}

// Recipes returns a copy of the live recipe set (replayed at open,
// maintained by CommitRecipe/DeleteRecipe since). The copy is the
// caller's to keep: later commits and deletes never mutate it.
func (b *Backing) Recipes() (map[string]shardstore.Recipe, error) {
	b.rmu.Lock()
	defer b.rmu.Unlock()
	out := make(map[string]shardstore.Recipe, len(b.recipes))
	for name, r := range b.recipes {
		out[name] = r
	}
	return out, nil
}

// Sync flushes and fsyncs every shard and the recipe journal, shards
// first. The invariant: every recipe record Sync makes durable was
// appended before a shard pass that this same call completed — so a
// recipe is never more durable than the inserts and +1 refdeltas it
// references, even though commit points no longer sync (or, under group
// commit, wait for) their puts and pins one batch at a time. A stream's
// shard records are always flushed before its recipe is appended, so it
// is enough that no recipe slips in between the last shard pass and the
// journal fsync: the first pass runs unlocked (it is where the time
// goes, and recipe appends must not queue behind it), then under b.rmu —
// which stops appends — the shards dirtied meanwhile are synced again,
// then the journal. The other path that makes recipes durable, the
// journal rewrite in maybeCompactRecipeLogLocked, keeps the same
// invariant the same way.
func (b *Backing) Sync() error { return b.sync(nil) }

// sync is Sync with a hook: locked, when non-nil, runs once b.rmu is
// held. Whatever was flushed to a shard or appended to the journal before
// that moment is durable when sync returns nil, which is what lets the
// group committer close a round's membership there instead of at the
// start of the pass.
func (b *Backing) sync(locked func()) error {
	first := b.syncShards()
	b.rmu.Lock()
	defer b.rmu.Unlock()
	if locked != nil {
		locked()
	}
	if err := b.syncShards(); err != nil && first == nil {
		first = err
	}
	// Past a shard failure the journal stays unsynced: its records may
	// reference exactly what was lost, and the backing is fail-stop now.
	if first == nil {
		first = b.recipeLog.sync(&b.met, b.span)
	}
	return first
}

// syncShards flushes and fsyncs every shard. Shards sync concurrently —
// their files are independent and the filesystem merges overlapping
// journal flushes, which is what makes a group-commit round cheap.
func (b *Backing) syncShards() error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for _, sh := range b.shards {
		wg.Add(1)
		go func(sh *diskShard) {
			defer wg.Done()
			if err := sh.sync(); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(sh)
	}
	wg.Wait()
	return first
}

// Barrier blocks until every record staged before the call is durable
// under the group-commit policy and returns the real outcome of the
// sync pass that covered it. Without a group committer it is a no-op:
// FsyncAlways commit points already synced inline, and the interval and
// never policies deliberately trade a loss window for throughput.
func (b *Backing) Barrier() error {
	if b.group == nil {
		return nil
	}
	if h := b.met.barrierSeconds.Load(); h != nil {
		defer h.ObserveSince(time.Now())
	}
	return b.group.wait()
}

// fsyncLoop is the FsyncInterval background loop. A sync failure is
// fatal: the error is latched so every subsequent commit fails loudly
// with it (and persist_sync_errors_total counts it), logged, and the
// loop exits — silently retrying against a disk that failed an fsync
// would only hide which acknowledged writes actually landed.
func (b *Backing) fsyncLoop(every time.Duration) {
	defer close(b.tickDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-b.tickStop:
			return
		case <-t.C:
			if err := b.Sync(); err != nil {
				b.met.latchFault(err)
				b.logger.Error("persist: background fsync failed; failing stop",
					"dir", b.dir, "err", err)
				return
			}
		}
	}
}

// Close flushes, fsyncs and releases everything. A closed backing's
// store must not be used further. Close is idempotent.
func (b *Backing) Close() error {
	b.closeMu.Lock()
	defer b.closeMu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	if b.tickStop != nil {
		close(b.tickStop)
		<-b.tickDone
	}
	if b.group != nil {
		b.group.close()
	}
	err := b.Sync()
	for _, sh := range b.shards {
		if cerr := sh.close(); err == nil {
			err = cerr
		}
	}
	b.rmu.Lock()
	if cerr := b.recipeLog.close(); err == nil {
		err = cerr
	}
	b.rmu.Unlock()
	return err
}

var _ shardstore.Backing = (*Backing)(nil)
