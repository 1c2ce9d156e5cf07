package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"shredder/internal/dedup"
	"shredder/internal/shardstore"
)

// groupOpts is the group-commit configuration the tests run under.
func groupOpts(shards int) Options {
	return Options{Shards: shards, CommitWindow: time.Millisecond}
}

// holdFirstSync hooks the fsync seam so the first fsync of a file whose
// path contains match blocks until release is called (entered is closed
// when it gets there): a sync pass held open for as long as the test
// needs a round in flight. Every fsync costs delay. Defer release after
// the backing's Close, so a test that fails with the pass still held lets
// it go before Close joins the syncer.
func holdFirstSync(t *testing.T, match string, delay time.Duration) (entered chan struct{}, release func()) {
	entered = make(chan struct{})
	held := make(chan struct{})
	var first, once sync.Once
	hookFsync(t, func(f *os.File) error {
		if strings.Contains(f.Name(), match) {
			first.Do(func() {
				close(entered)
				<-held
			})
		}
		time.Sleep(delay)
		return f.Sync()
	})
	return entered, func() { once.Do(func() { close(held) }) }
}

// waitFor polls cond, failing the test if it does not come true.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// queued reports how many waiters have joined the round no pass has
// taken yet.
func (g *groupCommitter) queued() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.joining.waiters
}

// appendCommit stages and flushes one fresh chunk on a shard.
func appendCommit(sh shardstore.ShardBacking, tag string) error {
	body := []byte(tag)
	if _, _, err := sh.Append(dedup.Sum(body), body); err != nil {
		return err
	}
	return sh.Commit()
}

// TestGroupCommitBatchesRounds checks that committers share rounds. First
// by construction: round 1 is held open inside its first fsync — the
// unlocked shard pass, before the round closes its membership — until
// seven more committers have registered, so all eight ride that one
// round. Then free-running on a disk where every fsync costs 2 ms: a pass
// outlasts the time a committer needs to come back, so rounds stay below
// commits.
func TestGroupCommitBatchesRounds(t *testing.T) {
	entered, release := holdFirstSync(t, "shard-0000", 2*time.Millisecond)
	b, err := Open(t.TempDir(), groupOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer release()
	if b.group == nil {
		t.Fatal("CommitWindow under FsyncAlways did not enable group commit")
	}
	for i := 0; i < b.NumShards(); i++ {
		if err := b.Shard(i).Recover(func(shardstore.Hash, shardstore.Ref, int64) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	const committers, commits = 8, 5
	var wg sync.WaitGroup
	errs := make([]error, committers)
	// run has every committer do n commits, the first on shard 0 and the
	// rest on shard 1 (the held pass keeps shard 0's lock, and only shard
	// 0's fsync is held).
	run := func(from, to, n int, tag string) {
		for g := from; g < to; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < n && errs[g] == nil; i++ {
					if errs[g] = appendCommit(b.Shard(min(g, 1)), fmt.Sprintf("%s-%d-%d", tag, g, i)); errs[g] == nil {
						errs[g] = b.Barrier()
					}
				}
			}(g)
		}
	}
	check := func() {
		t.Helper()
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("committer %d: %v", g, err)
			}
		}
	}

	run(0, 1, 1, "held")
	<-entered
	run(1, committers, 1, "held")
	waitFor(t, "all eight committers joined to round 1", func() bool { return b.group.queued() == committers })
	release()
	check()
	if rounds := b.met.groupRounds.Load(); rounds != 1 {
		t.Fatalf("%d rounds for %d commits with round 1 held open before its membership closed, want 1", rounds, committers)
	}
	// Riding along must not mean riding unsynced: the seven flushed shard 1
	// after the held pass had started.
	for i := 0; i < b.NumShards(); i++ {
		sh := b.shards[i]
		sh.mu.Lock()
		dirty := sh.wal.dirty || len(sh.walBuf) > 0
		sh.mu.Unlock()
		if dirty {
			t.Fatalf("shard %d still has unsynced records after its committers were released", i)
		}
	}

	run(0, committers, commits, "free")
	check()
	if rounds := b.met.groupRounds.Load() - 1; rounds >= committers*commits {
		t.Fatalf("%d rounds for %d commits at 2 ms per fsync: group commit never batched", rounds, committers*commits)
	}
	if got := b.met.syncErrors.Load(); got != 0 {
		t.Fatalf("sync errors counted on a healthy disk: %d", got)
	}
}

// TestGroupCommitStoreDurability runs concurrent sessions through the
// store-level path (Put + CommitRecipe, each ending in a Barrier) and
// proves a reopen recovers every acked recipe.
func TestGroupCommitStoreDurability(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, groupOpts(2))
	const sessions, recipes = 6, 4
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < recipes; i++ {
				body := []byte(fmt.Sprintf("session-%d-recipe-%d", g, i))
				if _, _, err := put(st, body); err != nil {
					errs[g] = err
					return
				}
				name := fmt.Sprintf("r-%d-%d", g, i)
				if err := st.CommitRecipe(name, shardstore.Recipe{dedup.Sum(body)}); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", g, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	got := openStore(t, dir, Options{})
	defer got.Close()
	names := got.RecipeNames()
	if len(names) != sessions*recipes {
		t.Fatalf("recovered %d recipes, want %d: %v", len(names), sessions*recipes, names)
	}
	for g := 0; g < sessions; g++ {
		for i := 0; i < recipes; i++ {
			want := []byte(fmt.Sprintf("session-%d-recipe-%d", g, i))
			r, ok := got.Recipe(fmt.Sprintf("r-%d-%d", g, i))
			if !ok {
				t.Fatalf("recipe r-%d-%d missing after reopen", g, i)
			}
			data, err := got.Reconstruct(r)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(want) {
				t.Fatalf("recipe r-%d-%d restored wrong bytes", g, i)
			}
		}
	}
}

// TestGroupCommitCloseDrains proves waiters registered before Close get
// the real outcome of a sync round instead of hanging or errClosed: one
// waiter's round is held open inside its journal fsync — past the point
// where it closed its membership — three more queue for the next round,
// Close begins, and only then is the disk let go.
func TestGroupCommitCloseDrains(t *testing.T) {
	entered, release := holdFirstSync(t, recipeLogName, 0)
	b, err := Open(t.TempDir(), groupOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer release()
	if err := b.Shard(0).Recover(func(shardstore.Hash, shardstore.Ref, int64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := appendCommit(b.Shard(0), "something to sync"); err != nil {
		t.Fatal(err)
	}
	if err := b.CommitRecipe("held", shardstore.Recipe{dedup.Sum([]byte("something to sync"))}); err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	wait := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = b.Barrier()
		}()
	}
	wait(0)
	<-entered
	for i := 1; i < waiters; i++ {
		wait(i)
	}
	waitFor(t, "three waiters queued for round 2", func() bool { return b.group.queued() == waiters-1 })
	closeErr := make(chan error, 1)
	go func() { closeErr <- b.Close() }()
	waitFor(t, "Close to reach the syncer", func() bool {
		b.group.mu.Lock()
		defer b.group.mu.Unlock()
		return b.group.closed
	})
	release()
	wg.Wait()
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d, registered before Close: %v", i, err)
		}
	}
	if rounds := b.met.groupRounds.Load(); rounds != 2 {
		t.Fatalf("%d rounds, want 2: the held one and the drain", rounds)
	}
	if err := b.Barrier(); !errors.Is(err, errClosed) {
		t.Fatalf("Barrier after Close = %v, want errClosed", err)
	}
}

// TestSyncFailureSticky pins the fail-stop contract shared by the
// interval loop and the group syncer: once any fsync fails, every
// later commit point fails loudly with the root cause, instead of
// silently pretending the data is durable.
func TestSyncFailureSticky(t *testing.T) {
	b, err := Open(t.TempDir(), Options{Shards: 1, Fsync: FsyncPolicy{Mode: FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sh := b.Shard(0)
	if err := sh.Recover(func(shardstore.Hash, shardstore.Ref, int64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	body := []byte("before the fault")
	if _, _, err := sh.Append(dedup.Sum(body), body); err != nil {
		t.Fatal(err)
	}
	if err := sh.Commit(); err != nil {
		t.Fatal(err)
	}

	root := errors.New("disk on fire")
	b.met.latchFault(root)

	body = []byte("after the fault")
	if _, _, err := sh.Append(dedup.Sum(body), body); err != nil {
		t.Fatal(err)
	}
	if err := sh.Commit(); !errors.Is(err, root) {
		t.Fatalf("Commit after latched fault = %v, want wrapped %v", err, root)
	}
	if err := b.CommitRecipe("r", shardstore.Recipe{dedup.Sum(body)}); !errors.Is(err, root) {
		t.Fatalf("CommitRecipe after latched fault = %v, want wrapped %v", err, root)
	}
}

// TestCheckedSyncCountsErrors proves a real failed fsync syscall bumps
// persist_sync_errors_total and latches the fault.
func TestCheckedSyncCountsErrors(t *testing.T) {
	b, err := Open(t.TempDir(), Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	f, err := os.CreateTemp(t.TempDir(), "closed")
	if err != nil {
		t.Fatal(err)
	}
	f.Close() // Sync on a closed file fails with os.ErrClosed
	if err := b.met.checkedSync(f); err == nil {
		t.Fatal("checkedSync on a closed file succeeded")
	}
	if got := b.met.syncErrors.Load(); got != 1 {
		t.Fatalf("syncErrors = %d, want 1", got)
	}
	if err := b.met.syncFailed(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("fault latched %v, want wrapped os.ErrClosed", err)
	}
}

// TestCrashTruncateGroupCommittedRecipes group-commits recipes from
// concurrent sessions, then truncates the recipe journal at every byte
// of the resulting window. Every recovery must yield a subset of the
// acked recipes with no holes in append order (so a batched fsync can
// never surface recipe K without the recipes journaled before it), and
// the untruncated journal must yield exactly the acked set.
func TestCrashTruncateGroupCommittedRecipes(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, groupOpts(1))
	if _, _, err := put(st, []byte("shared chunk")); err != nil {
		t.Fatal(err)
	}
	h := dedup.Sum([]byte("shared chunk"))
	const sessions, recipes = 4, 3
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < recipes; i++ {
				if err := st.CommitRecipe(fmt.Sprintf("r-%d-%d", g, i), shardstore.Recipe{h}); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", g, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, recipeLogName))
	if err != nil {
		t.Fatal(err)
	}
	acked := sessions * recipes
	prev := 0
	for cut := 0; cut <= len(raw); cut++ {
		crash := t.TempDir()
		copyTree(t, dir, crash)
		if err := os.Truncate(filepath.Join(crash, recipeLogName), int64(cut)); err != nil {
			t.Fatal(err)
		}
		got, err := OpenStore(crash, Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		names := got.RecipeNames()
		if len(names) > acked {
			t.Fatalf("cut at %d: recovered %d recipes, more than the %d acked", cut, len(names), acked)
		}
		// Truncation keeps a record prefix, so the recovered count can
		// only grow with the cut — a batched fsync must not reorder
		// records across the window.
		if len(names) < prev {
			t.Fatalf("cut at %d: recovered %d recipes after %d at the previous cut", cut, len(names), prev)
		}
		prev = len(names)
		if cut == len(raw) && len(names) != acked {
			t.Fatalf("full journal recovered %d recipes, want all %d acked", len(names), acked)
		}
		for _, n := range names {
			r, ok := got.Recipe(n)
			if !ok {
				t.Fatalf("cut at %d: recipe %s listed but not fetchable", cut, n)
			}
			if _, err := got.Reconstruct(r); err != nil {
				t.Fatalf("cut at %d: recovered recipe %s does not restore: %v", cut, n, err)
			}
		}
		got.Close()
	}
}
