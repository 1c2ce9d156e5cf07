package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shredder/internal/chunker"
	"shredder/internal/dedup"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// putBatch puts chunks through PutHashedBatch, the store's one put;
// put and writeStream are its one-chunk and whole-stream forms.
func putBatch(s *shardstore.Store, chunks [][]byte) ([]shardstore.Ref, []bool, error) {
	hs := make([]shardstore.Hash, len(chunks))
	for i, c := range chunks {
		hs[i] = dedup.Sum(c)
	}
	return s.PutHashedBatch(hs, chunks)
}

func put(s *shardstore.Store, data []byte) (shardstore.Ref, bool, error) {
	refs, dup, err := putBatch(s, [][]byte{data})
	return refs[0], dup[0], err
}

// writeStream stores an already-chunked stream and returns its recipe.
func writeStream(s *shardstore.Store, chunks [][]byte) (shardstore.Recipe, error) {
	r := make(shardstore.Recipe, len(chunks))
	for i, c := range chunks {
		r[i] = dedup.Sum(c)
	}
	_, _, err := s.PutHashedBatch(r, chunks)
	return r, err
}

// corpus cuts a deterministic snapshot series into content-defined
// chunks, the same workload the shardstore tests use.
func corpus(t testing.TB, seed int64, size, snapshots int) [][]byte {
	t.Helper()
	chk, err := chunker.New(chunker.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	im := workload.NewImage(seed, size, 16<<10, 0.2)
	var out [][]byte
	add := func(img []byte) {
		for _, c := range chk.Split(img) {
			out = append(out, img[c.Offset:c.End()])
		}
	}
	add(im.Master)
	for i := 0; i < snapshots; i++ {
		add(im.Snapshot(seed + int64(i)))
	}
	return out
}

func openStore(t testing.TB, dir string, opts Options) *shardstore.Store {
	t.Helper()
	st, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReopenEmpty opens, closes and reopens an empty data dir.
func TestReopenEmpty(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Shards: 4})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir, Options{})
	defer st.Close()
	if st.NumShards() != 4 {
		t.Fatalf("reopen adopted %d shards, want 4 from manifest", st.NumShards())
	}
	if s := st.Stats(); s != (dedup.Stats{}) {
		t.Fatalf("empty reopen has stats %+v", s)
	}
}

// TestRoundTrip is the core durability property at the store level:
// everything — refs, refcounts, duplicate classification, recipes,
// stats, container layout — survives close + reopen, and the recovered
// index keeps deduplicating.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, ContainerSize: 1 << 20, Fsync: FsyncPolicy{Mode: FsyncNever}}
	st := openStore(t, dir, opts)

	chunks := corpus(t, 21, 1<<20, 2)
	recipe, err := writeStream(st, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CommitRecipe("stream-a", recipe); err != nil {
		t.Fatal(err)
	}
	if _, _, err := put(st, []byte("one more chunk")); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitRecipe("stream-b", shardstore.Recipe{dedup.Sum([]byte("one more chunk"))}); err != nil {
		t.Fatal(err)
	}
	want, err := st.Reconstruct(recipe)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := st.Stats()
	wantContainers := st.Containers()
	wantRC := st.Refcount(dedup.Sum(chunks[0]))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openStore(t, dir, opts)
	defer st.Close()
	if got := st.Stats(); got != wantStats {
		t.Fatalf("recovered stats %+v, want %+v", got, wantStats)
	}
	if got := st.Containers(); got != wantContainers {
		t.Fatalf("recovered %d containers, want %d", got, wantContainers)
	}
	if got := st.Refcount(dedup.Sum(chunks[0])); got != wantRC {
		t.Fatalf("recovered refcount %d, want %d", got, wantRC)
	}
	names := st.RecipeNames()
	if len(names) != 2 || names[0] != "stream-a" || names[1] != "stream-b" {
		t.Fatalf("recovered recipe names %v", names)
	}
	got, ok := st.Recipe("stream-a")
	if !ok {
		t.Fatal("stream-a recipe lost")
	}
	data, err := st.Reconstruct(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("reconstruction differs after reopen")
	}

	// The recovered index must classify the same chunks as duplicates.
	_, dup, err := putBatch(st, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dup {
		if !d {
			t.Fatalf("chunk %d not recognized as duplicate after reopen", i)
		}
	}
}

// TestDifferentialAgainstMemory drives a durable store and the
// in-memory reference with the same chunk sequence and asserts
// identical classification, stats and packing — the persistence layer
// must not change semantics.
func TestDifferentialAgainstMemory(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 8, ContainerSize: 1 << 20}
	disk := openStore(t, dir, opts)
	defer disk.Close()
	mem, err := shardstore.New(8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	chunks := corpus(t, 33, 1<<20, 1)
	for i, c := range chunks {
		dr, ddup, derr := put(disk, c)
		mr, mdup, merr := put(mem, c)
		if derr != nil || merr != nil {
			t.Fatal(derr, merr)
		}
		if dr != mr || ddup != mdup {
			t.Fatalf("chunk %d: disk (%+v, %v) vs mem (%+v, %v)", i, dr, ddup, mr, mdup)
		}
	}
	if ds, ms := disk.Stats(), mem.Stats(); ds != ms {
		t.Fatalf("stats diverge: disk %+v, mem %+v", ds, ms)
	}
	for i, c := range chunks[:64] {
		ref, ok := disk.Has(dedup.Sum(c))
		if !ok {
			t.Fatalf("chunk %d missing", i)
		}
		data, err := disk.Get(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, c) {
			t.Fatalf("chunk %d reads back differently", i)
		}
	}
}

// TestFsyncPolicies smoke-tests every policy end to end.
func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []string{"always", "never", "interval=10ms"} {
		t.Run(pol, func(t *testing.T) {
			policy, err := ParseFsyncPolicy(pol)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			st := openStore(t, dir, Options{Shards: 2, Fsync: policy})
			chunks := corpus(t, 5, 256<<10, 0)
			if _, _, err := putBatch(st, chunks); err != nil {
				t.Fatal(err)
			}
			stats := st.Stats()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st = openStore(t, dir, Options{Fsync: policy})
			defer st.Close()
			if got := st.Stats(); got != stats {
				t.Fatalf("policy %s: recovered %+v, want %+v", pol, got, stats)
			}
		})
	}
}

// TestParseFsyncPolicy covers the flag syntax.
func TestParseFsyncPolicy(t *testing.T) {
	good := map[string]string{
		"always":         "always",
		"never":          "never",
		"interval":       "interval=1s",
		"interval=250ms": "interval=250ms",
		"2s":             "interval=2s",
	}
	for in, want := range good {
		p, err := ParseFsyncPolicy(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
		} else if p.String() != want {
			t.Errorf("%q parsed to %q, want %q", in, p, want)
		}
	}
	for _, bad := range []string{"", "sometimes", "interval=", "interval=-1s", "-5ms", "interval=x"} {
		if _, err := ParseFsyncPolicy(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestManifestMismatch pins the layout options to the data directory.
func TestManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Shards: 4, ContainerSize: 1 << 20})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, Options{Shards: 8}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	if _, err := OpenStore(dir, Options{ContainerSize: 2 << 20}); err == nil {
		t.Fatal("container-size mismatch accepted")
	}
	if _, err := Open(dir+"2", Options{Shards: 3}); err == nil {
		t.Fatal("non-power-of-two shard count accepted")
	}
}

// TestTornContainerTail simulates the crash where container bytes were
// lost but their WAL records survived (possible under relaxed fsync):
// recovery must fall back to the longest prefix consistent with the
// bytes on disk.
func TestTornContainerTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, ContainerSize: 1 << 20}
	st := openStore(t, dir, opts)
	var chunks [][]byte
	for i := 0; i < 8; i++ {
		chunks = append(chunks, bytes.Repeat([]byte{byte('a' + i)}, 100))
	}
	refs, _, err := putBatch(st, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop the last chunk's bytes (and half of the one before) out of
	// the container file.
	cpath := filepath.Join(dir, "shard-0000", fmt.Sprintf(containerFormat, 0))
	if err := os.Truncate(cpath, refs[6].Offset+50); err != nil {
		t.Fatal(err)
	}

	st = openStore(t, dir, opts)
	defer st.Close()
	stats := st.Stats()
	if stats.UniqueChunks != 6 {
		t.Fatalf("recovered %d chunks, want the 6 whose bytes survived", stats.UniqueChunks)
	}
	for i, c := range chunks {
		_, ok := st.Has(dedup.Sum(c))
		if want := i < 6; ok != want {
			t.Fatalf("chunk %d: present=%v, want %v", i, ok, want)
		}
	}
	// The container must be cut back to the last fully-journaled byte
	// so new appends land consistently.
	fi, err := os.Stat(cpath)
	if err != nil {
		t.Fatal(err)
	}
	if want := refs[5].Offset + refs[5].Length; fi.Size() != want {
		t.Fatalf("container truncated to %d, want %d", fi.Size(), want)
	}
	if _, _, err := put(st, []byte("new chunk after repair")); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyOnRecover flips one byte inside a committed chunk — the
// file-size check cannot see that — and asserts scrub recovery falls
// back to the clean prefix while plain recovery (documented as
// size-based) keeps the entry.
func TestVerifyOnRecover(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, ContainerSize: 1 << 20}
	st := openStore(t, dir, opts)
	chunks := [][]byte{
		bytes.Repeat([]byte{'a'}, 100),
		bytes.Repeat([]byte{'b'}, 100),
		bytes.Repeat([]byte{'c'}, 100),
	}
	refs, _, err := putBatch(st, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte in the middle of chunk 1's on-disk bytes.
	cpath := filepath.Join(dir, "shard-0000", fmt.Sprintf(containerFormat, 0))
	f, err := os.OpenFile(cpath, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, refs[1].Offset+50); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Without scrub: size check passes, the corruption is invisible.
	plain := openStore(t, dir, opts)
	if got := plain.Stats().UniqueChunks; got != 3 {
		t.Fatalf("plain recovery kept %d chunks, want 3", got)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}

	// With scrub: replay stops at the first fingerprint mismatch and
	// cuts history back to the clean prefix.
	opts.VerifyOnRecover = true
	scrubbed := openStore(t, dir, opts)
	defer scrubbed.Close()
	if got := scrubbed.Stats().UniqueChunks; got != 1 {
		t.Fatalf("scrub recovery kept %d chunks, want 1", got)
	}
	if _, ok := scrubbed.Has(dedup.Sum(chunks[0])); !ok {
		t.Fatal("scrub recovery lost the intact chunk")
	}
	if _, ok := scrubbed.Has(dedup.Sum(chunks[1])); ok {
		t.Fatal("scrub recovery kept the corrupted chunk")
	}
}

// TestOversizedRecipeRejected asserts a recipe too large to frame is
// refused at commit time instead of being journaled and then silently
// read back as a torn tail.
func TestOversizedRecipeRejected(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Shards: 1})
	if _, _, err := put(st, []byte("chunk")); err != nil {
		t.Fatal(err)
	}
	// Each recipe entry is one 32-byte fingerprint; enough of them push
	// the record body past maxRecordSize.
	huge := make(shardstore.Recipe, maxRecordSize/32+2)
	for i := range huge {
		huge[i] = testHash(byte(i))
	}
	if err := st.CommitRecipe("huge", huge); err == nil {
		t.Fatal("oversized recipe accepted")
	}
	// The store must still work and the journal must still be clean.
	if err := st.CommitRecipe("ok", shardstore.Recipe{dedup.Sum([]byte("chunk"))}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir, Options{})
	defer st.Close()
	if names := st.RecipeNames(); len(names) != 1 || names[0] != "ok" {
		t.Fatalf("recovered recipes %v, want [ok]", names)
	}
}

// TestRecipeReplace asserts the journal's last commit for a name wins
// after reopen.
func TestRecipeReplace(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{Shards: 1})
	if _, _, err := put(st, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := put(st, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitRecipe("vm", shardstore.Recipe{dedup.Sum([]byte("v1"))}); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitRecipe("vm", shardstore.Recipe{dedup.Sum([]byte("v2"))}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir, Options{})
	defer st.Close()
	r, ok := st.Recipe("vm")
	if !ok || len(r) != 1 || r[0] != dedup.Sum([]byte("v2")) {
		t.Fatalf("recovered recipe %+v", r)
	}
	data, err := st.Reconstruct(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Fatalf("reconstructed %q", data)
	}
}
