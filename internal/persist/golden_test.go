package persist

import (
	"bytes"
	"encoding/binary"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"shredder/internal/dedup"
	"shredder/internal/shardstore"
)

// updateGolden regenerates testdata/golden-v2 from goldenScript. The
// fixture pins the bytes a data directory holds — MANIFEST, recipes.wal,
// shard WALs, containers — so it is rewritten only when the on-disk
// format changes on purpose, never to make a failing test pass:
//
//	go test ./internal/persist/ -run TestGoldenStore -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/persist/testdata/golden-v2 from the script in golden_test.go")

// The fixture's three data directories, all written by one run of
// goldenScript and all describing the same logical store:
//
//	prefix      the store closed just before Compact. The script is
//	            deterministic up to here, so a replay must reproduce it
//	            byte for byte.
//	relocating  a crash image from inside shard 1's checkpoint, taken
//	            when the replacement journal's temp file is fsynced: the
//	            shard WAL ends in relocate records, the victim container
//	            is still there, and a stale wal.tmp lies beside them.
//	compacted   the store closed after Compact: shard 1's WAL is a
//	            checkpoint image (inserts, plus a refdelta for a count
//	            above one) and its container numbering has a hole.
//
// Compaction walks the index in map order, so relocating and compacted
// are one recorded outcome rather than the only possible one; they are
// opened, never compared.
const goldenDir = "testdata/golden-v2"

var goldenImages = []string{"prefix", "relocating", "compacted"}

// goldenOpts fixes the fixture's layout. The fsync policy leaves no trace
// in the files; FsyncNever keeps the script off every timer.
var goldenOpts = Options{Shards: 2, ContainerSize: 64 << 10, Fsync: FsyncPolicy{Mode: FsyncNever}}

// goldenChunk is a size-byte chunk of splitmix64 output whose fingerprint
// lands in the given shard of the two-shard fixture. The bytes depend on
// nothing outside this function: seed, size and shard name them forever.
func goldenChunk(shard int, seed uint64, size int) []byte {
	for ; ; seed += 1 << 32 {
		x := seed
		body := make([]byte, 0, size+8)
		for len(body) < size {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			body = binary.LittleEndian.AppendUint64(body, z^(z>>31))
		}
		body = body[:size]
		if h := dedup.Sum(body); int(binary.BigEndian.Uint32(h[:4]))&1 == shard {
			return body
		}
	}
}

// goldenStreams is what the script ingests. Shard 1 takes the bulk —
// a0..a9 and b0..b5 fill its first 64 KiB container to the byte, so c0
// rolls it — and shard 0 a few small chunks, so its one container stays
// open and is never a compaction victim.
type goldenStreams struct {
	a, b1, c, b2 [][]byte
	pins         []shardstore.Hash // c's pin batch: a0, b0, a5, and one fingerprint nobody stored
}

func newGoldenStreams() goldenStreams {
	big := func(tag uint64, n int) (out [][]byte) {
		for i := 0; i < n; i++ {
			out = append(out, goldenChunk(1, tag<<8|uint64(i), 4<<10))
		}
		return out
	}
	small := func(tag uint64, n int) (out [][]byte) {
		for i := 0; i < n; i++ {
			out = append(out, goldenChunk(0, tag<<8|uint64(i), 1<<10))
		}
		return out
	}
	a, b, c, d := big(0xa, 10), big(0xb, 6), big(0xc, 2), big(0xd, 1)
	s := small(0x5, 3)
	var g goldenStreams
	g.a = slices.Concat(a, s[:2])
	g.b1 = slices.Concat(a[:5], b, s[:1]) // a0..a4 and s0 are duplicate hits
	g.c = slices.Concat([][]byte{a[0], b[0], a[5]}, c, s[2:])
	g.b2 = slices.Concat([][]byte{a[5], a[6]}, d, s[1:2])
	g.pins = []shardstore.Hash{dedup.Sum(a[0]), dedup.Sum(b[0]), dedup.Sum(a[5]), dedup.Sum([]byte("golden: never stored"))}
	return g
}

// goldenScript writes the fixture's history into dir and returns with the
// store closed: unique puts and duplicate hits (a, b), a pin batch and
// the bodies it reported missing (c), a replaced name (b again, which
// releases the first b's references), a delete (a) and — unless
// stopBeforeCompact — a compaction that relocates shard 1's four
// surviving 4 KiB chunks out of its first container and checkpoints the
// shard. midCheckpoint, when non-nil, runs inside that checkpoint, at the
// fsync of shard 1's wal.tmp.
func goldenScript(t *testing.T, dir string, stopBeforeCompact bool, midCheckpoint func()) {
	t.Helper()
	g := newGoldenStreams()
	st := openStore(t, dir, goldenOpts)
	defer func() {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	ingestStream(t, st, "a", g.a)
	ingestStream(t, st, "b", g.b1)

	_, missing, err := st.PinBatch(g.pins)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(missing, []int{3}) {
		t.Fatalf("pin batch reported %v missing, want [3]", missing)
	}
	rest := g.c[3:]
	hs := make([]shardstore.Hash, len(rest))
	for i, body := range rest {
		hs[i] = dedup.Sum(body)
	}
	if _, _, err := st.PutHashedBatch(hs, rest); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitRecipe("c", slices.Concat(g.pins[:3], hs)); err != nil {
		t.Fatal(err)
	}

	ingestStream(t, st, "b", g.b2)
	if _, err := st.DeleteRecipe("a"); err != nil {
		t.Fatal(err)
	}
	if stopBeforeCompact {
		return
	}
	if midCheckpoint != nil {
		tmp := filepath.Join(dir, "shard-0001", "wal.tmp")
		hookFsync(t, func(f *os.File) error {
			if f.Name() == tmp {
				midCheckpoint()
			}
			return f.Sync()
		})
	}
	cs, err := st.Compact(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Containers != 1 || cs.MovedBytes != 16<<10 {
		t.Fatalf("compaction %+v, want 1 container reclaimed and 16 KiB moved", cs)
	}
}

// readTree returns every file under root keyed by its slash-separated
// relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestGoldenStore pins the bytes of a data directory (ROADMAP item 2, the
// on-disk half). Every build must open what an earlier build left behind —
// checked in under testdata/golden-v2 — and must still write the same
// bytes for the same history.
func TestGoldenStore(t *testing.T) {
	if *updateGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		goldenScript(t, filepath.Join(goldenDir, "prefix"), true, nil)
		live := filepath.Join(t.TempDir(), "live")
		goldenScript(t, live, false, func() { copyTree(t, live, filepath.Join(goldenDir, "relocating")) })
		copyTree(t, live, filepath.Join(goldenDir, "compacted"))
	}
	g := newGoldenStreams()

	// (a) Each image opens under VerifyOnRecover to the same store: the
	// two surviving recipes restore byte-exact, and the counters and
	// reference counts are the ones the history implies.
	for _, image := range goldenImages {
		t.Run("open/"+image, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), image)
			copyTree(t, filepath.Join(goldenDir, image), dir)
			st := openStore(t, dir, Options{VerifyOnRecover: true, Fsync: FsyncPolicy{Mode: FsyncNever}})
			defer st.Close()
			if st.NumShards() != 2 {
				t.Fatalf("manifest adopted as %d shards, want 2", st.NumShards())
			}
			if names := st.RecipeNames(); !slices.Equal(names, []string{"b", "c"}) {
				t.Fatalf("recovered recipes %v, want [b c]", names)
			}
			for name, chunks := range map[string][][]byte{"b": g.b2, "c": g.c} {
				r, _ := st.Recipe(name)
				got, err := st.Reconstruct(r)
				if err != nil {
					t.Fatalf("restore %q: %v", name, err)
				}
				if !bytes.Equal(got, bytes.Join(chunks, nil)) {
					t.Fatalf("recipe %q does not restore to the bytes the script ingested", name)
				}
			}
			// b = a5 a6 d0 s1, c = a0 b0 a5 c0 c1 s2: ten references to
			// nine chunks, seven of 4 KiB and two of 1 KiB (a5 twice).
			want := dedup.Stats{LogicalBytes: 34 << 10, StoredBytes: 30 << 10, Chunks: 10, UniqueChunks: 9, IndexHits: 1}
			if got := st.Stats(); got != want {
				t.Fatalf("recovered stats %+v, want %+v", got, want)
			}
			for _, rc := range []struct {
				what string
				body []byte
				refs int64
			}{
				{"a0 (pinned by c, released by a and the first b)", g.a[0], 1},
				{"a5 (pinned by c, a duplicate hit in the second b)", g.a[5], 2},
				{"b0 (pinned by c, released by the first b)", g.b1[5], 1},
				{"a1 (held only by a and the first b)", g.a[1], 0},
				{"b1 (held only by the first b)", g.b1[6], 0},
				{"s0 (held only by a and the first b)", g.a[10], 0},
			} {
				if got := st.Refcount(dedup.Sum(rc.body)); got != rc.refs {
					t.Fatalf("refcount of %s is %d, want %d", rc.what, got, rc.refs)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "shard-0001", "wal.tmp")); !os.IsNotExist(err) {
				t.Fatalf("stale wal.tmp survived the open (stat: %v)", err)
			}
		})
	}

	// (b) The same history written by this build is the same bytes, file
	// for file.
	t.Run("rewrite/prefix", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "prefix")
		goldenScript(t, dir, true, nil)
		got, want := readTree(t, dir), readTree(t, filepath.Join(goldenDir, "prefix"))
		for name, data := range want {
			if g, ok := got[name]; !ok {
				t.Errorf("%s: in the fixture, not written by this build", name)
			} else if !bytes.Equal(g, data) {
				t.Errorf("%s: %d bytes written, differing from the fixture's %d", name, len(g), len(data))
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: written by this build, not in the fixture", name)
			}
		}
	})

	// What the fixture claims to cover is really in it.
	t.Run("coverage", func(t *testing.T) {
		types := func(rel string) (seen [recRecipeDelete + 1]int) {
			raw, err := os.ReadFile(filepath.Join(goldenDir, rel))
			if err != nil {
				t.Fatal(err)
			}
			clean, _ := scanRecords(raw, func(body []byte) error {
				seen[body[0]]++
				return nil
			})
			if clean != len(raw) {
				t.Fatalf("%s: %d of %d bytes are clean records", rel, clean, len(raw))
			}
			return seen
		}
		if n := types("prefix/recipes.wal"); n[recRecipe] != 4 || n[recRecipeDelete] != 1 {
			t.Errorf("prefix/recipes.wal holds %d commits and %d tombstones, want 4 and 1", n[recRecipe], n[recRecipeDelete])
		}
		if n := types("prefix/shard-0001/wal"); n[recInsert] != 19 || n[recRefDelta] == 0 || n[recRelocate] != 0 {
			t.Errorf("prefix/shard-0001/wal record counts by type %v", n)
		}
		if n := types("relocating/shard-0001/wal"); n[recRelocate] != 4 {
			t.Errorf("relocating/shard-0001/wal holds %d relocate records, want 4", n[recRelocate])
		}
		if n := types("compacted/shard-0001/wal"); n[recInsert] != 7 || n[recRefDelta] != 1 || n[recRelocate] != 0 {
			t.Errorf("compacted/shard-0001/wal is not a checkpoint image of 7 entries, one with a count above one: %v", n)
		}
		if _, err := os.Stat(filepath.Join(goldenDir, "compacted/shard-0001/c-000000.dat")); !os.IsNotExist(err) {
			t.Errorf("compacted image still has shard 1's victim container (stat: %v)", err)
		}
		var total int64
		for _, data := range readTree(t, goldenDir) {
			total += int64(len(data))
		}
		if total > 256<<10 {
			t.Errorf("fixture is %d bytes, over the 256 KiB it is allowed", total)
		}
	})
}
