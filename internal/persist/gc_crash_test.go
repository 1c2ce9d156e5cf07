package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shredder/internal/dedup"
	"shredder/internal/shardstore"
)

// The retention crash battery. Deletion and compaction write three
// kinds of records — recipe tombstones (recipe log), refcount
// decrements and relocations (shard WAL) — and the invariants a crash
// at ANY byte must preserve are:
//
//  1. no live chunk is lost: every recipe the recovered store reports
//     reconstructs byte-exactly;
//  2. no deleted recipe is resurrected pointing at released chunks: a
//     recipe either comes back whole or not at all.
//
// The write ordering that makes this true: the tombstone is journaled
// (and, under FsyncAlways, durable) before any decrement, and
// relocated copies are durable before the WAL checkpoint, which is
// durable (atomic rename) before any container is unlinked. The tests
// below truncate each journal across every byte of the reachable crash
// states.

// walLen returns the shard-0 WAL size.
func walLen(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "shard-0000", walName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// recipeLogLen returns the recipe journal size.
func recipeLogLen(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, recipeLogName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestDeleteCrashShardWALTruncation cuts the shard WAL at every byte
// of the delete's decrement tail (the tombstone is already durable —
// the ordering DeleteRecipe guarantees) and asserts the retained
// recipe always restores, the deleted recipe never resurrects, and the
// refcounts match the surviving record prefix exactly.
func TestDeleteCrashShardWALTruncation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, ContainerSize: 1 << 20, Fsync: FsyncPolicy{Mode: FsyncNever}}
	chunkA := bytes.Repeat([]byte{'a'}, 300) // only in r1
	chunkB := bytes.Repeat([]byte{'b'}, 200) // shared
	chunkC := bytes.Repeat([]byte{'c'}, 100) // only in r2
	hA, hB, hC := dedup.Sum(chunkA), dedup.Sum(chunkB), dedup.Sum(chunkC)

	st := openStore(t, dir, opts)
	ingestStream(t, st, "r1", [][]byte{chunkA, chunkB})
	ingestStream(t, st, "r2", [][]byte{chunkB, chunkC})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	pre := walLen(t, dir)

	st = openStore(t, dir, opts)
	ds, err := st.DeleteRecipe("r1")
	if err != nil {
		t.Fatal(err)
	}
	if ds.ChunksReleased != 2 || ds.ChunksFreed != 1 || ds.BytesFreed != int64(len(chunkA)) {
		t.Fatalf("delete stats %+v", ds)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	full := walLen(t, dir)
	if full <= pre {
		t.Fatalf("delete journaled nothing: %d -> %d", pre, full)
	}
	// Parse the decrement tail's record boundaries so every cut maps to
	// how many decrements survive (order: recipe order, A then B).
	raw, err := os.ReadFile(filepath.Join(dir, "shard-0000", walName))
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for off := pre; off < full; {
		body, size, rerr := readRecord(raw[off:])
		if rerr != nil || body[0] != recRefDelta {
			t.Fatalf("unexpected delete-tail record at %d: %v", off, rerr)
		}
		off += int64(size)
		ends = append(ends, off)
	}
	if len(ends) != 2 {
		t.Fatalf("delete tail has %d records, want 2", len(ends))
	}

	wantR2 := append(append([]byte(nil), chunkB...), chunkC...)
	for cut := pre; cut <= full; cut++ {
		crash := t.TempDir()
		copyTree(t, dir, crash)
		if err := os.Truncate(filepath.Join(crash, "shard-0000", walName), cut); err != nil {
			t.Fatal(err)
		}
		got, err := OpenStore(crash, opts)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		survived := 0
		for _, end := range ends {
			if end <= cut {
				survived++
			}
		}
		// Invariant 2: the tombstone is durable, so r1 must be gone at
		// every cut.
		if _, ok := got.Recipe("r1"); ok {
			t.Fatalf("cut at %d: deleted recipe resurrected", cut)
		}
		// Invariant 1: the retained recipe restores byte-exactly.
		r2, ok := got.Recipe("r2")
		if !ok {
			t.Fatalf("cut at %d: retained recipe lost", cut)
		}
		data, err := got.Reconstruct(r2)
		if err != nil || !bytes.Equal(data, wantR2) {
			t.Fatalf("cut at %d: retained stream broken: %v", cut, err)
		}
		// Exact refcounts for the surviving prefix: decrement order is
		// A (1→0, dropped) then B (2→1).
		wantA := int64(1)
		wantB := int64(2)
		if survived >= 1 {
			wantA = 0
		}
		if survived >= 2 {
			wantB = 1
		}
		if rc := got.Refcount(hA); rc != wantA {
			t.Fatalf("cut at %d: refcount(A) = %d, want %d", cut, rc, wantA)
		}
		if rc := got.Refcount(hB); rc != wantB {
			t.Fatalf("cut at %d: refcount(B) = %d, want %d", cut, rc, wantB)
		}
		if rc := got.Refcount(hC); rc != 1 {
			t.Fatalf("cut at %d: refcount(C) = %d, want 1", cut, rc)
		}
		// The repaired store keeps working: finish the interrupted
		// delete's worth of work by re-deleting nothing (r1 is gone),
		// put a chunk, close, recover again.
		if _, _, err := got.Put([]byte("post-crash chunk")); err != nil {
			t.Fatalf("cut at %d: put after recovery: %v", cut, err)
		}
		statsAfter := got.Stats()
		if err := got.Close(); err != nil {
			t.Fatalf("cut at %d: close: %v", cut, err)
		}
		again, err := OpenStore(crash, opts)
		if err != nil {
			t.Fatalf("cut at %d: second recovery: %v", cut, err)
		}
		if s := again.Stats(); s != statsAfter {
			t.Fatalf("cut at %d: second recovery drifted: %+v != %+v", cut, s, statsAfter)
		}
		again.Close()
	}
}

// TestDeleteCrashTombstoneTruncation cuts the recipe journal at every
// byte of the tombstone record, with the shard WAL at its pre-delete
// state (the reachable crash window: DeleteRecipe makes the tombstone
// durable before staging any decrement). The deleted recipe must come
// back whole (torn tombstone) or not at all (complete tombstone) —
// never broken.
func TestDeleteCrashTombstoneTruncation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, Fsync: FsyncPolicy{Mode: FsyncNever}}
	chunkA := bytes.Repeat([]byte{'a'}, 300)
	chunkB := bytes.Repeat([]byte{'b'}, 200)

	st := openStore(t, dir, opts)
	ingestStream(t, st, "r1", [][]byte{chunkA, chunkB})
	ingestStream(t, st, "r2", [][]byte{chunkB})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	preShard := walLen(t, dir)
	preRecipes := recipeLogLen(t, dir)

	st = openStore(t, dir, opts)
	if _, err := st.DeleteRecipe("r1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fullRecipes := recipeLogLen(t, dir)

	wantR1 := append(append([]byte(nil), chunkA...), chunkB...)
	for cut := preRecipes; cut <= fullRecipes; cut++ {
		crash := t.TempDir()
		copyTree(t, dir, crash)
		if err := os.Truncate(filepath.Join(crash, recipeLogName), cut); err != nil {
			t.Fatal(err)
		}
		// The decrements never hit disk: DeleteRecipe orders the
		// tombstone first.
		if err := os.Truncate(filepath.Join(crash, "shard-0000", walName), preShard); err != nil {
			t.Fatal(err)
		}
		got, err := OpenStore(crash, opts)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		r1, ok := got.Recipe("r1")
		if cut < fullRecipes {
			// Torn tombstone: the delete never happened.
			if !ok {
				t.Fatalf("cut at %d: recipe lost without its tombstone", cut)
			}
			data, err := got.Reconstruct(r1)
			if err != nil || !bytes.Equal(data, wantR1) {
				t.Fatalf("cut at %d: surviving recipe broken: %v", cut, err)
			}
		} else if ok {
			t.Fatalf("cut at %d: complete tombstone did not delete", cut)
		}
		// r2 restores either way.
		r2, ok := got.Recipe("r2")
		if !ok {
			t.Fatalf("cut at %d: retained recipe lost", cut)
		}
		if data, err := got.Reconstruct(r2); err != nil || !bytes.Equal(data, chunkB) {
			t.Fatalf("cut at %d: retained stream broken: %v", cut, err)
		}
		got.Close()
	}
}

// TestRelocateCrashWALTruncation builds the pre-checkpoint compaction
// state — relocation records staged in the live WAL, old containers
// still on disk — and cuts the WAL at every byte. Whatever prefix
// survives, every chunk must read back byte-exactly from whichever
// location the prefix says, under both plain and scrub recovery.
func TestRelocateCrashWALTruncation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, ContainerSize: 600, Fsync: FsyncPolicy{Mode: FsyncNever}}
	chunks := [][]byte{
		bytes.Repeat([]byte{'a'}, 256),
		bytes.Repeat([]byte{'b'}, 256),
		bytes.Repeat([]byte{'c'}, 256),
	}
	// Drive the backing directly to freeze the moment between the
	// relocation commits and the checkpoint (Store.Compact always
	// checkpoints; a crash can land exactly here).
	b, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := b.Shard(0)
	if err := sh.Recover(func(shardstore.Hash, shardstore.Ref, int64) error {
		return fmt.Errorf("fresh shard recovered state")
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if _, _, err := sh.Append(dedup.Sum(c), c); err != nil {
			t.Fatal(err)
		}
	}
	// A and B move (as if their container were mostly dead); their old
	// copies stay on disk because no checkpoint dropped them.
	for _, c := range chunks[:2] {
		if _, _, err := sh.Relocate(dedup.Sum(c), c); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	full := walLen(t, dir)
	for _, scrub := range []bool{false, true} {
		ropts := opts
		ropts.VerifyOnRecover = scrub
		for cut := int64(0); cut <= full; cut++ {
			crash := t.TempDir()
			copyTree(t, dir, crash)
			if err := os.Truncate(filepath.Join(crash, "shard-0000", walName), cut); err != nil {
				t.Fatal(err)
			}
			got, err := OpenStore(crash, ropts)
			if err != nil {
				t.Fatalf("scrub=%v cut at %d: recovery failed: %v", scrub, cut, err)
			}
			// Every chunk whose insert survived must read back exactly,
			// from old or new location alike.
			for i, c := range chunks {
				data, ok, gerr := got.GetByHash(dedup.Sum(c))
				if !ok {
					continue // insert fell past the cut
				}
				if gerr != nil || !bytes.Equal(data, c) {
					t.Fatalf("scrub=%v cut at %d: chunk %d corrupt: %v", scrub, cut, i, gerr)
				}
				if rc := got.Refcount(dedup.Sum(c)); rc != 1 {
					t.Fatalf("scrub=%v cut at %d: chunk %d refcount %d", scrub, cut, i, rc)
				}
			}
			// The repaired store stays writable and stable.
			if _, _, err := got.Put([]byte("post-crash")); err != nil {
				t.Fatalf("scrub=%v cut at %d: put: %v", scrub, cut, err)
			}
			statsAfter := got.Stats()
			if err := got.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := OpenStore(crash, ropts)
			if err != nil {
				t.Fatalf("scrub=%v cut at %d: second recovery: %v", scrub, cut, err)
			}
			if s := again.Stats(); s != statsAfter {
				t.Fatalf("scrub=%v cut at %d: drifted %+v != %+v", scrub, cut, s, statsAfter)
			}
			again.Close()
		}
	}
}

// TestCompactionCrashBeforeCheckpointRename: a crash mid-checkpoint
// leaves a wal.tmp; recovery must ignore and remove it, answering from
// the old WAL (every container still on disk). Same for the recipe
// journal's rewrite temp file.
func TestCompactionCrashBeforeCheckpointRename(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, ContainerSize: 1 << 10, Fsync: FsyncPolicy{Mode: FsyncNever}}
	st := openStore(t, dir, opts)
	var keepChunks [][]byte
	for i := 0; i < 6; i++ {
		keepChunks = append(keepChunks, chunk256("keep", i))
	}
	keep := ingestStream(t, st, "keep", keepChunks)
	want := st.Stats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant half-written checkpoint/rewrite temp files.
	if err := os.WriteFile(filepath.Join(dir, "shard-0000", walName+".tmp"), []byte("torn checkpoi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, recipeLogName+".tmp"), []byte("torn rewrit"), 0o644); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir, opts)
	defer st.Close()
	if got := st.Stats(); got != want {
		t.Fatalf("recovered stats %+v, want %+v", got, want)
	}
	if data, err := st.Reconstruct(keep); err != nil || !bytes.Equal(data, bytes.Join(keepChunks, nil)) {
		t.Fatalf("stream broken after tmp-file crash: %v", err)
	}
	for _, p := range []string{filepath.Join(dir, "shard-0000", walName+".tmp"), filepath.Join(dir, recipeLogName+".tmp")} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("leftover temp file %s not removed", p)
		}
	}
}

// TestLostContainerFailsStop: a WAL that references a container whose
// file is missing (external loss — compaction never leaves this
// state) must refuse to open rather than silently truncate the WAL at
// the first dangling record and shrink intact containers to match.
func TestLostContainerFailsStop(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, ContainerSize: 1 << 10, Fsync: FsyncPolicy{Mode: FsyncNever}}
	st := openStore(t, dir, opts)
	var chunks [][]byte
	for i := 0; i < 8; i++ { // 2 KiB: spans two containers
		chunks = append(chunks, chunk256("lost", i))
	}
	ingestStream(t, st, "s", chunks)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "shard-0000", fmt.Sprintf(containerFormat, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, opts); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("open with a lost container = %v, want a fail-stop naming the missing file", err)
	}
}

// TestCompactionCrashAfterRenameBeforeUnlink models the final window:
// the checkpoint WAL is in place but the victim container files were
// never unlinked. Recovery must come back exact, and the next
// compaction pass sweeps the orphaned containers.
func TestCompactionCrashAfterRenameBeforeUnlink(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, ContainerSize: 1 << 10, Fsync: FsyncPolicy{Mode: FsyncNever}}
	st := openStore(t, dir, opts)
	var keepChunks, dropChunks [][]byte
	for i := 0; i < 4; i++ {
		keepChunks = append(keepChunks, chunk256("keep", i))
		dropChunks = append(dropChunks, chunk256("drop", i))
	}
	keep := ingestStream(t, st, "keep", keepChunks)
	ingestStream(t, st, "drop", dropChunks)
	ingestStream(t, st, "fill", [][]byte{chunk256("fill", 0)})
	if _, err := st.DeleteRecipe("drop"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(0.9); err != nil {
		t.Fatal(err)
	}
	want := st.Stats()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect a victim container file as if unlink never ran: a stale
	// orphan full of garbage the checkpoint WAL no longer references.
	orphan := filepath.Join(dir, "shard-0000", fmt.Sprintf(containerFormat, 1))
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("expected container 1 to have been dropped (err %v)", err)
	}
	if err := os.WriteFile(orphan, bytes.Repeat([]byte{0xdd}, 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	st = openStore(t, dir, opts)
	defer st.Close()
	if got := st.Stats(); got != want {
		t.Fatalf("recovered stats %+v, want %+v", got, want)
	}
	if data, err := st.Reconstruct(keep); err != nil || !bytes.Equal(data, bytes.Join(keepChunks, nil)) {
		t.Fatalf("stream broken with orphan container present: %v", err)
	}
	// The orphan holds zero live bytes; the next pass reclaims it.
	if _, err := st.Compact(0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan container survived the sweeping pass")
	}
}
