package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shredder/internal/dedup"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// hookFsync routes every policy-driven fsync through fn for the rest of
// the test. Call it before opening the backing: cleanups run after the
// test body's deferred Close has joined the syncer, so the seam is never
// written while a goroutine can read it. Tests that hook the seam must
// not run in parallel.
func hookFsync(t testing.TB, fn func(*os.File) error) {
	t.Helper()
	old := fsyncFile
	fsyncFile = fn
	t.Cleanup(func() { fsyncFile = old })
}

// slowDisk models a device where every fsync costs d.
func slowDisk(t testing.TB, d time.Duration) {
	hookFsync(t, func(f *os.File) error {
		time.Sleep(d)
		return f.Sync()
	})
}

// syncRecorder remembers, per file, how many bytes its last successful
// fsync is known to have covered — what a power loss would keep.
type syncRecorder struct {
	mu     sync.Mutex
	synced map[string]int64
}

func newSyncRecorder() *syncRecorder { return &syncRecorder{synced: make(map[string]int64)} }

// sync is the fsync seam: the size is read before the fsync, so bytes
// appended while it runs are never credited to it.
func (r *syncRecorder) sync(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	r.mu.Lock()
	r.synced[f.Name()] = st.Size()
	// A journal rewrite fsyncs its temp file and renames it over the
	// journal: from the rename on, that is what the journal's name holds.
	if path, ok := strings.CutSuffix(f.Name(), ".tmp"); ok {
		r.synced[path] = st.Size()
	}
	r.mu.Unlock()
	return nil
}

// image writes to dst what a power loss at this instant would leave of
// the data directory src: every WAL, container and journal cut back to
// its last-synced size (nothing, if it was never synced). The manifest
// is fsynced and renamed into place before Open returns, and is kept
// whole. Taken from inside the fsync of a journal
// rewrite's temp file, the image is the crash just after the rename that
// follows: the temp file's bytes under the journal's name.
func (r *syncRecorder) image(src, dst string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		keep := r.synced[path]
		if d.Name() == manifestName {
			keep = math.MaxInt64
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		_, err = io.Copy(out, io.LimitReader(in, keep))
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return err
	}
	journal := filepath.Join(dst, recipeLogName)
	if err := os.Rename(journal+".tmp", journal); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// chunkIn returns a distinct chunk body whose fingerprint lands in the
// given shard of an n-shard store.
func chunkIn(shard, n int, tag string) []byte {
	for i := 0; ; i++ {
		body := []byte(fmt.Sprintf("%s/%d", tag, i))
		h := dedup.Sum(body)
		if int(binary.BigEndian.Uint32(h[:4]))&(n-1) == shard {
			return body
		}
	}
}

// crashRig drives a store under the recording seam and keeps what the
// crash-image tests check afterwards: a power-loss image per recipe-
// journal fsync (ordinary or rewrite), the bytes every recipe name may
// restore to, and how many images existed when each commit was acked.
type crashRig struct {
	dir, imgRoot string
	rec          *syncRecorder

	mu       sync.Mutex
	want     map[string][][]byte // recipe name → stream bytes of each version, set before its commit
	ackedAt  map[string]int      // recipe name → len(images) when its CommitRecipe returned
	images   []string
	rewrites int // journal rewrites among the images
	imgErr   error
}

func newCrashRig(t *testing.T) *crashRig {
	return &crashRig{
		dir: t.TempDir(), imgRoot: t.TempDir(), rec: newSyncRecorder(),
		want: map[string][][]byte{}, ackedAt: map[string]int{},
	}
}

// sync is the fsync seam. Every fsync is recorded; one that makes recipe
// records durable — the journal's own, or a rewrite's temp file about to
// be renamed over it — also takes the crash image. It reports whether f
// was such a file.
func (c *crashRig) sync(f *os.File) (journal bool, err error) {
	if err := c.rec.sync(f); err != nil {
		return false, err
	}
	base := filepath.Base(f.Name())
	if base != recipeLogName && base != recipeLogName+".tmp" {
		return false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	img := filepath.Join(c.imgRoot, fmt.Sprintf("img-%04d", len(c.images)))
	if err := c.rec.image(c.dir, img); err != nil && c.imgErr == nil {
		c.imgErr = err
	}
	c.images = append(c.images, img)
	if base != recipeLogName {
		c.rewrites++
	}
	return true, nil
}

func (c *crashRig) rewritten() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rewrites
}

// commit is one stream: put chunks, optionally pin one more, commit the
// recipe under name. A tracked name is committed once and never deleted,
// so from its ack on every image must hold it.
func (c *crashRig) commit(st *shardstore.Store, name string, chunks [][]byte, pin []byte, tracked bool) error {
	hs := make([]dedup.Hash, len(chunks))
	for i, ch := range chunks {
		hs[i] = dedup.Sum(ch)
	}
	if _, _, err := st.PutHashedBatch(hs, chunks); err != nil {
		return err
	}
	if pin != nil {
		ph := dedup.Sum(pin)
		if _, missing, err := st.PinBatch([]dedup.Hash{ph}); err != nil || len(missing) != 0 {
			return fmt.Errorf("pin: missing %v, err %v", missing, err)
		}
		hs, chunks = append(hs, ph), append(chunks, pin)
	}
	c.mu.Lock()
	c.want[name] = append(c.want[name], bytes.Join(chunks, nil))
	c.mu.Unlock()
	if err := st.CommitRecipe(name, hs); err != nil {
		return err
	}
	if tracked {
		c.mu.Lock()
		c.ackedAt[name] = len(c.images)
		c.mu.Unlock()
	}
	return nil
}

// verify recovers every image and checks what a crash must never break:
// each recovered recipe restores byte-exact to a version committed under
// its name, no chunk's refcount is below the references the recovered
// recipes hold on it, and a tracked recipe is in the last image taken
// before its ack and in every later one — durable before acked.
func (c *crashRig) verify(t *testing.T) {
	t.Helper()
	if c.imgErr != nil {
		t.Fatalf("building a crash image: %v", c.imgErr)
	}
	for k, img := range c.images {
		got, err := OpenStore(img, Options{VerifyOnRecover: true})
		if err != nil {
			t.Fatalf("%s: %v", img, err)
		}
		held := map[shardstore.Hash]int64{}
		names := got.RecipeNames()
		for _, name := range names {
			r, _ := got.Recipe(name)
			data, err := got.Reconstruct(r)
			if err != nil {
				t.Errorf("%s: recovered recipe %s does not restore: %v", img, name, err)
				continue
			}
			if !slices.ContainsFunc(c.want[name], func(v []byte) bool { return bytes.Equal(v, data) }) {
				t.Errorf("%s: recovered recipe %s restores bytes never committed under it", img, name)
			}
			for _, h := range r {
				held[h]++
			}
		}
		for h, n := range held {
			if rc := got.Refcount(h); rc < n {
				t.Errorf("%s: chunk %x has refcount %d, recovered recipes hold %d references", img, h[:4], rc, n)
			}
		}
		for name, n := range c.ackedAt {
			if _, found := slices.BinarySearch(names, name); n <= k+1 && !found {
				t.Errorf("%s: recipe %s was acked with %d images taken but is not in image %d", img, name, n, k)
			}
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestCrashImageGroupCommit is the power-loss check on what the one-
// barrier-per-stream design leans on: nothing makes a recipe durable
// ahead of the shard records it references, and a Barrier never returns
// ahead of its caller's records. Concurrent sessions put, pin and commit
// under group commit while one more keeps replacing and deleting a fat
// recipe under a fixed name, so the journal is rewritten under them; every
// fsync that makes recipe records durable takes a crash image (each file
// cut to its last-synced size), and every image must pass crashRig.verify.
//
// The window that matters — a session flushing shard records after the
// round's shard pass got to that shard, then appending its recipe before
// the round's journal fsync — is opened on purpose: shard 0 belongs to an
// injected session, idle when the hook stops a round inside another
// shard's first-pass fsync and lets that session put, pin and append.
// Without the second, locked shard pass in Sync the round then fsyncs that
// recipe with shard 0 unsynced, and the image holds a recipe whose insert
// and +1 refdelta are missing. The injected session then registers its
// Barrier with the pass already running and rides that round, so its ack
// is the one the durable-before-acked check is hardest on.
func TestCrashImageGroupCommit(t *testing.T) {
	const (
		shards     = 4
		sessions   = 5
		injections = 6
		rewrites   = 2
		minCommits = 10  // per session, however fast the rest lands
		maxCommits = 400 // per session; bounds the run if it never does
		fat        = 150 // chunks per version of the replaced recipe
	)
	rig := newCrashRig(t)
	var (
		b        *Backing
		inject   = make(chan string) // hook → injected session: commit under this name
		injected atomic.Int64
		failed   atomic.Bool // a session gave up; stop waiting on it

		injMu  sync.Mutex // one injection at a time; guards closed
		closed bool
	)
	hookFsync(t, func(f *os.File) error {
		// A shard file outside shard 0, synced with b.rmu free: the first,
		// unlocked pass of a round (the second pass, the journal fsync and a
		// rewrite's pass all run under b.rmu).
		if journal, err := rig.sync(f); err != nil || journal ||
			strings.Contains(f.Name(), "shard-0000") || !injMu.TryLock() {
			return err
		}
		defer injMu.Unlock()
		// b == nil: the manifest's fsync, inside Open.
		if b == nil || closed || injected.Load() >= injections || !b.rmu.TryLock() {
			return nil
		}
		b.rmu.Unlock()
		name := fmt.Sprintf("injected-%d", injected.Load())
		select {
		case inject <- name:
		default:
			return nil // the injected session is still inside its last commit
		}
		for !failed.Load() {
			b.rmu.Lock()
			_, appended := b.recipes[name]
			b.rmu.Unlock()
			if appended {
				break
			}
			time.Sleep(20 * time.Microsecond)
		}
		injected.Add(1)
		return nil
	})

	var err error
	if b, err = Open(rig.dir, Options{Shards: shards, CommitWindow: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	st, err := shardstore.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	// One shared chunk per shard, held by a base recipe: what sessions pin.
	shared := make([][]byte, shards)
	for i := range shared {
		shared[i] = chunkIn(i, shards, "shared")
	}
	if err := rig.commit(st, "base", shared, nil, true); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions+2)
	fail := func(err error) {
		failed.Store(true)
		errs <- err
	}
	wg.Add(1)
	go func() { // the injected session: shard 0 only
		defer wg.Done()
		for name := range inject {
			if err := rig.commit(st, name, [][]byte{chunkIn(0, shards, name)}, shared[0], true); err != nil {
				fail(fmt.Errorf("%s: %w", name, err))
				return
			}
		}
	}()
	busy := func(i int) bool {
		return i < maxCommits && !failed.Load() &&
			(i < minCommits || injected.Load() < injections || rig.rewritten() < rewrites)
	}
	var free sync.WaitGroup
	for g := 0; g < sessions; g++ {
		free.Add(1)
		go func(g int) {
			defer free.Done()
			for i := 0; busy(i); i++ {
				name := fmt.Sprintf("s%d-%d", g, i)
				s1, s2 := 1+(g+i)%(shards-1), 1+(g+i+1)%(shards-1)
				chunks := [][]byte{chunkIn(s1, shards, name+"/a"), chunkIn(s2, shards, name+"/b")}
				if err := rig.commit(st, name, chunks, shared[s1], true); err != nil {
					fail(fmt.Errorf("%s: %w", name, err))
					return
				}
			}
		}(g)
	}
	free.Add(1)
	go func() { // retention churn: one name, replaced and now and then deleted
		defer free.Done()
		for i := 0; busy(i); i++ {
			if i%7 == 6 {
				if _, err := st.DeleteRecipe("churn"); err != nil {
					fail(fmt.Errorf("delete churn: %w", err))
					return
				}
				continue
			}
			chunks := make([][]byte, fat)
			for j := range chunks {
				chunks[j] = []byte(fmt.Sprintf("churn-%d-%d", i, j))
			}
			if err := rig.commit(st, "churn", chunks, shared[1+i%(shards-1)], false); err != nil {
				fail(fmt.Errorf("churn %d: %w", i, err))
				return
			}
		}
	}()
	free.Wait()
	injMu.Lock()
	closed = true
	injMu.Unlock()
	close(inject)
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := injected.Load(); n < injections {
		t.Fatalf("only %d of %d injections landed: the window was not exercised", n, injections)
	}
	if n := rig.rewritten(); n < rewrites {
		t.Fatalf("only %d of %d journal rewrites happened: compaction was not exercised", n, rewrites)
	}
	rig.verify(t)
	t.Logf("%d crash images, %d injected commits, %d journal rewrites", len(rig.images), injected.Load(), rig.rewritten())
}

// TestCrashImageRecipeCompaction covers the other path that makes
// recipes durable: the journal rewrite at the end of CommitRecipe and
// DeleteRecipe. One session under group commit keeps replacing a fat
// recipe under a fixed name — fresh chunks each time — and deletes it now
// and then, so the journal crosses recipeLogSlack again and again. Nothing
// has synced the chunks of the version just appended when its own
// CommitRecipe rewrites the journal, so without the shard pass in front of
// the rewrite the image taken there holds a recipe whose inserts are gone.
func TestCrashImageRecipeCompaction(t *testing.T) {
	const (
		rewrites = 3
		maxIter  = 400
		fat      = 150 // chunks per version of the replaced recipe
	)
	rig := newCrashRig(t)
	hookFsync(t, func(f *os.File) error {
		_, err := rig.sync(f)
		return err
	})
	st, err := OpenStore(rig.dir, Options{Shards: 2, CommitWindow: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	shared := []byte("pinned by every version")
	if err := rig.commit(st, "base", [][]byte{shared}, nil, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxIter && rig.rewritten() < rewrites; i++ {
		switch i % 7 {
		case 3: // a recipe that stays, so a rewrite has neighbours to carry over
			name := fmt.Sprintf("keep-%d", i)
			if err := rig.commit(st, name, [][]byte{[]byte(name)}, shared, true); err != nil {
				t.Fatal(err)
			}
		case 6:
			if _, err := st.DeleteRecipe("vm"); err != nil {
				t.Fatal(err)
			}
		default:
			chunks := make([][]byte, fat)
			for j := range chunks {
				chunks[j] = []byte(fmt.Sprintf("vm-%d-%d", i, j))
			}
			if err := rig.commit(st, "vm", chunks, shared, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := rig.rewritten(); n < rewrites {
		t.Fatalf("only %d of %d journal rewrites happened: compaction was not exercised", n, rewrites)
	}
	rig.verify(t)
	t.Logf("%d crash images, %d journal rewrites", len(rig.images), rig.rewritten())
}

// TestSlowDiskGroupCommit runs the group committer on a model disk where
// every fsync costs 2 ms, at 1, 2 and 16 concurrent sessions. A lone
// session's barrier must cost one sync pass and nothing on top (no
// timer), one pass per commit; sixteen sessions released together must
// ride one round per cycle — the first arrival's, which the rest join
// before it closes its membership — not split 1 + 15 over two. The gates
// are the round counts; the table it logs is the one CHANGES.md quotes
// against the 2 ms-sleep design.
func TestSlowDiskGroupCommit(t *testing.T) {
	slowDisk(t, 2*time.Millisecond)
	for _, tc := range []struct{ sessions, commits int }{{1, 20}, {2, 20}, {16, 10}} {
		t.Run(fmt.Sprintf("sessions=%d", tc.sessions), func(t *testing.T) {
			r := runSlowDisk(t, tc.sessions, tc.commits)
			t.Logf("sessions=%d commits=%d rounds=%d pass=%.2fms barrier p50=%.2fms (pass %+.2fms) commit p50=%.2fms p99=%.2fms %.0f streams/s",
				tc.sessions, r.commits, r.rounds, ms(r.pass), ms(r.wait), ms(r.wait-r.pass), ms(r.p50), ms(r.p99), r.perSec)
			switch tc.sessions {
			case 1:
				if r.rounds != int64(r.commits) {
					t.Errorf("%d rounds for %d lone commits, want one each", r.rounds, r.commits)
				}
				// What a commit waits in its barrier is the pass and two
				// goroutine wake-ups (logged above). The bound is the 2 ms the
				// old design slept in front of the pass, wide enough for a
				// loaded runner under -race.
				if r.wait > r.pass+2*time.Millisecond {
					t.Errorf("lone barrier p50 %v, one pass is %v: something besides the pass is being waited for", r.wait, r.pass)
				}
			case 16:
				// One round per cycle is commits/16; two per cycle — the
				// 1 + 15 split — is commits/8 and more.
				if r.rounds*10 > int64(r.commits) {
					t.Errorf("%d rounds for %d commits: 16 sessions are not riding one round per cycle", r.rounds, r.commits)
				}
			}
		})
	}
}

type slowDiskResult struct {
	commits  int
	rounds   int64
	pass     time.Duration // mean sync pass
	wait     time.Duration // median time in Barrier
	p50, p99 time.Duration // put + commit, end to end
	perSec   float64
}

// barrierTimer records how long each Barrier call blocked.
type barrierTimer struct {
	*Backing
	mu    sync.Mutex
	waits []time.Duration
}

func (b *barrierTimer) Barrier() error {
	t0 := time.Now()
	err := b.Backing.Barrier()
	b.mu.Lock()
	b.waits = append(b.waits, time.Since(t0))
	b.mu.Unlock()
	return err
}

func median(d []time.Duration) time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runSlowDisk has each of n sessions put one fresh chunk and commit a
// recipe for it, commits times, and reports what a commit cost.
func runSlowDisk(t testing.TB, n, commits int) slowDiskResult {
	b, err := Open(t.TempDir(), Options{Shards: 16, CommitWindow: 2 * time.Millisecond, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bt := &barrierTimer{Backing: b}
	st, err := shardstore.Open(bt)
	if err != nil {
		t.Fatal(err)
	}
	lat := make([][]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				body := []byte(fmt.Sprintf("slow-disk-%d-%d", g, i))
				c0 := time.Now()
				if _, _, errs[g] = st.Put(body); errs[g] != nil {
					return
				}
				if errs[g] = st.CommitRecipe(fmt.Sprintf("r-%d-%d", g, i), shardstore.Recipe{dedup.Sum(body)}); errs[g] != nil {
					return
				}
				lat[g] = append(lat[g], time.Since(c0))
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []time.Duration
	for g := range lat {
		if errs[g] != nil {
			t.Fatalf("session %d: %v", g, errs[g])
		}
		all = append(all, lat[g]...)
	}
	h := b.met.groupRoundSeconds.Load()
	return slowDiskResult{
		commits: len(all),
		rounds:  b.met.groupRounds.Load(),
		pass:    time.Duration(h.Sum() / float64(h.Count()) * float64(time.Second)),
		wait:    median(bt.waits),
		p50:     median(all),
		p99:     all[len(all)*99/100],
		perSec:  float64(len(all)) / wall.Seconds(),
	}
}
