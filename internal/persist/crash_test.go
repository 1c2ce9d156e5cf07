package persist

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"shredder/internal/dedup"
	"shredder/internal/shardstore"
)

// copyTree clones a data directory so each truncation experiment gets
// a pristine crash image.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// walState is the index state implied by a WAL prefix.
type walState struct {
	index    map[shardstore.Hash]shardstore.Ref
	refcount map[shardstore.Hash]int64
}

// replayPrefix computes, independently of the recovery code, the state
// a clean prefix of parsed WAL bodies describes.
func replayPrefix(t *testing.T, bodies [][]byte) walState {
	t.Helper()
	st := walState{
		index:    make(map[shardstore.Hash]shardstore.Ref),
		refcount: make(map[shardstore.Hash]int64),
	}
	for _, body := range bodies {
		switch body[0] {
		case recInsert:
			h, ci, off, length, err := decodeLocated(body)
			if err != nil {
				t.Fatal(err)
			}
			st.index[h] = shardstore.Ref{Shard: 0, Container: ci, Offset: off, Length: length}
			st.refcount[h] = 1
		case recRefDelta:
			h, delta, err := decodeRefDelta(body)
			if err != nil {
				t.Fatal(err)
			}
			st.refcount[h] += delta
		default:
			t.Fatalf("unexpected record type %d in shard WAL", body[0])
		}
	}
	return st
}

// TestCrashTruncateFinalRecord is the crash-injection matrix the issue
// asks for: write a known history, then for EVERY byte boundary of the
// final WAL record (and, for good measure, every earlier boundary in
// the file) truncate the log there and assert recovery comes back with
// exactly the state of the longest clean record prefix — and stays
// writable.
func TestCrashTruncateFinalRecord(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, ContainerSize: 1 << 20}
	st := openStore(t, dir, opts)
	chunkA := bytes.Repeat([]byte{'a'}, 300)
	chunkB := bytes.Repeat([]byte{'b'}, 200)
	// History: insert A, insert B, refdelta A (duplicate hit). The
	// final record is the refcount delta; the test also covers final-
	// record-is-insert implicitly by cutting inside earlier records.
	for _, c := range [][]byte{chunkA, chunkB, chunkA} {
		if _, _, err := put(st, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "shard-0000", walName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Parse the record boundaries so each cut can be mapped to its
	// expected clean prefix.
	var bodies [][]byte
	var ends []int
	for off := 0; off < len(raw); {
		body, size, err := readRecord(raw[off:])
		if err != nil {
			t.Fatalf("pristine WAL torn at %d: %v", off, err)
		}
		bodies = append(bodies, append([]byte(nil), body...))
		off += size
		ends = append(ends, off)
	}
	if len(bodies) != 3 {
		t.Fatalf("history produced %d records, want 3", len(bodies))
	}

	prefixRecords := func(cut int) int {
		n := 0
		for _, end := range ends {
			if end <= cut {
				n++
			}
		}
		return n
	}

	for cut := 0; cut <= len(raw); cut++ {
		crash := t.TempDir()
		copyTree(t, dir, crash)
		if err := os.Truncate(filepath.Join(crash, "shard-0000", walName), int64(cut)); err != nil {
			t.Fatal(err)
		}
		got, err := OpenStore(crash, opts)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		want := replayPrefix(t, bodies[:prefixRecords(cut)])
		stats := got.Stats()
		if stats.UniqueChunks != int64(len(want.index)) {
			t.Fatalf("cut at %d: %d unique chunks, want %d", cut, stats.UniqueChunks, len(want.index))
		}
		var wantChunks int64
		for h, rc := range want.refcount {
			if got.Refcount(h) != rc {
				t.Fatalf("cut at %d: refcount %d for %x, want %d", cut, got.Refcount(h), h[:4], rc)
			}
			wantChunks += rc
		}
		if stats.Chunks != wantChunks {
			t.Fatalf("cut at %d: stats %+v, want %d chunks", cut, stats, wantChunks)
		}
		for h, ref := range want.index {
			gref, ok := got.Has(h)
			if !ok || gref != ref {
				t.Fatalf("cut at %d: entry %x = (%+v, %v), want %+v", cut, h[:4], gref, ok, ref)
			}
			data, err := got.Get(gref)
			if err != nil {
				t.Fatalf("cut at %d: %v", cut, err)
			}
			if dedup.Sum(data) != h {
				t.Fatalf("cut at %d: content of %x corrupted", cut, h[:4])
			}
		}
		// The repaired store must keep working: a fresh put, a clean
		// close, and an intact second recovery.
		if _, _, err := put(got, bytes.Repeat([]byte{'c'}, 100)); err != nil {
			t.Fatalf("cut at %d: put after recovery: %v", cut, err)
		}
		statsAfter := got.Stats()
		if err := got.Close(); err != nil {
			t.Fatalf("cut at %d: close after recovery: %v", cut, err)
		}
		again, err := OpenStore(crash, opts)
		if err != nil {
			t.Fatalf("cut at %d: second recovery failed: %v", cut, err)
		}
		if s := again.Stats(); s != statsAfter {
			t.Fatalf("cut at %d: second recovery drifted: %+v != %+v", cut, s, statsAfter)
		}
		again.Close()
	}
}

// TestCrashTruncateRecipeLog applies the same byte-boundary sweep to
// the store-level recipe journal.
func TestCrashTruncateRecipeLog(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1}
	st := openStore(t, dir, opts)
	if _, _, err := put(st, []byte("chunk")); err != nil {
		t.Fatal(err)
	}
	h := dedup.Sum([]byte("chunk"))
	if err := st.CommitRecipe("first", shardstore.Recipe{h}); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitRecipe("second", shardstore.Recipe{h, h}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, recipeLogName))
	if err != nil {
		t.Fatal(err)
	}
	_, firstSize, err := readRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	for cut := firstSize; cut <= len(raw); cut++ {
		crash := t.TempDir()
		copyTree(t, dir, crash)
		if err := os.Truncate(filepath.Join(crash, recipeLogName), int64(cut)); err != nil {
			t.Fatal(err)
		}
		got, err := OpenStore(crash, opts)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantNames := 1
		if cut == len(raw) {
			wantNames = 2
		}
		if names := got.RecipeNames(); len(names) != wantNames {
			t.Fatalf("cut at %d: recovered recipes %v, want %d", cut, names, wantNames)
		}
		got.Close()
	}
}
