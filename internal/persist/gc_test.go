package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shredder/internal/dedup"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// chunk256 builds a distinct 256-byte test chunk.
func chunk256(tag string, i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("%s%03d-", tag, i)), 32)
}

// ingestStream writes chunks as a named stream.
func ingestStream(t *testing.T, st *shardstore.Store, name string, chunks [][]byte) shardstore.Recipe {
	t.Helper()
	r, err := writeStream(st, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CommitRecipe(name, r); err != nil {
		t.Fatal(err)
	}
	return r
}

// containerBytes sums the on-disk container file sizes under dir.
func containerBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && filepath.Ext(path) == ".dat" {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestDeleteCompactDiskRoundTrip is the end-to-end disk reclamation
// property: delete + compact actually shrinks the bytes on disk,
// everything retained restores byte-exactly before AND after a
// restart, and previously-freed chunks re-ingest as new.
func TestDeleteCompactDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 2, ContainerSize: 1 << 10, Fsync: FsyncPolicy{Mode: FsyncNever}}
	st := openStore(t, dir, opts)

	var keepChunks, dropChunks [][]byte
	for i := 0; i < 24; i++ {
		keepChunks = append(keepChunks, chunk256("keep", i))
		dropChunks = append(dropChunks, chunk256("drop", i))
	}
	shared := chunk256("shared", 0)
	keep := ingestStream(t, st, "keep", append([][]byte{shared}, keepChunks...))
	ingestStream(t, st, "drop", append([][]byte{shared}, dropChunks...))
	// Roll the open containers so the drop stream's bytes are all in
	// closed (compactable) containers.
	ingestStream(t, st, "fill", [][]byte{chunk256("fill", 0), chunk256("fill", 1)})

	before := containerBytes(t, dir)
	ds, err := st.DeleteRecipe("drop")
	if err != nil {
		t.Fatal(err)
	}
	if ds.ChunksReleased != 25 || ds.ChunksFreed != 24 {
		t.Fatalf("delete stats %+v, want 25 released / 24 freed", ds)
	}
	statsAfterDelete := st.Stats()
	cs, err := st.Compact(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Containers == 0 {
		t.Fatalf("compaction found nothing: %+v", cs)
	}
	after := containerBytes(t, dir)
	if after >= before {
		t.Fatalf("disk usage did not shrink: %d -> %d", before, after)
	}
	if st.Stats() != statsAfterDelete {
		t.Fatalf("compaction changed stats: %+v != %+v", st.Stats(), statsAfterDelete)
	}
	wantKeep := append([]byte(nil), shared...)
	wantKeep = append(wantKeep, bytes.Join(keepChunks, nil)...)
	if data, err := st.Reconstruct(keep); err != nil || !bytes.Equal(data, wantKeep) {
		t.Fatalf("keep stream broken after compaction: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the compacted layout recovers exactly.
	st = openStore(t, dir, opts)
	defer st.Close()
	if got := st.Stats(); got != statsAfterDelete {
		t.Fatalf("recovered stats %+v, want %+v", got, statsAfterDelete)
	}
	if names := st.RecipeNames(); len(names) != 2 || names[0] != "fill" || names[1] != "keep" {
		t.Fatalf("recovered recipes %v", names)
	}
	if data, err := st.Reconstruct(keep); err != nil || !bytes.Equal(data, wantKeep) {
		t.Fatalf("keep stream broken after restart: %v", err)
	}
	// The shared chunk survived (keep still references it); the
	// drop-only chunks are really gone and re-ingest as new.
	if rc := st.Refcount(dedup.Sum(shared)); rc != 1 {
		t.Fatalf("shared chunk refcount %d, want 1", rc)
	}
	_, dup, err := putBatch(st, dropChunks)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dup {
		if d {
			t.Fatalf("freed chunk %d still classified duplicate after restart", i)
		}
	}
}

// TestCompactedStoreKeepsDeduplicating: chunks moved by the compactor
// are still found by the index (same fingerprints), so a re-push of a
// retained stream is fully duplicate.
func TestCompactedStoreKeepsDeduplicating(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, ContainerSize: 1 << 10, Fsync: FsyncPolicy{Mode: FsyncNever}}
	st := openStore(t, dir, opts)
	defer st.Close()
	var keepChunks, dropChunks [][]byte
	for i := 0; i < 8; i++ {
		keepChunks = append(keepChunks, chunk256("alive", i))
		dropChunks = append(dropChunks, chunk256("doomed", i))
	}
	// Interleave so every container is half dead after the delete.
	for i := range keepChunks {
		if _, _, err := put(st, dropChunks[i]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := put(st, keepChunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	var keep, drop shardstore.Recipe
	for i := range keepChunks {
		keep = append(keep, dedup.Sum(keepChunks[i]))
		drop = append(drop, dedup.Sum(dropChunks[i]))
	}
	if err := st.CommitRecipe("keep", keep); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitRecipe("drop", drop); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DeleteRecipe("drop"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(0.9); err != nil {
		t.Fatal(err)
	}
	_, dup, err := putBatch(st, keepChunks)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dup {
		if !d {
			t.Fatalf("moved chunk %d not recognized as duplicate", i)
		}
	}
}

// TestRecipeLogCompaction: retention churn (commit + delete over and
// over) must not grow the recipe journal without bound — the journal
// is rewritten once mostly dead, and recovery still sees exactly the
// live set.
func TestRecipeLogCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, Fsync: FsyncPolicy{Mode: FsyncNever}}
	st := openStore(t, dir, opts)
	// A recipe big enough that a few hundred dead copies far exceed the
	// compaction slack.
	big := make(shardstore.Recipe, 64)
	for i := range big {
		big[i] = dedup.Sum([]byte{byte(i)})
	}
	for round := 0; round < 200; round++ {
		name := fmt.Sprintf("gen-%d", round)
		if err := st.CommitRecipe(name, big); err != nil {
			t.Fatal(err)
		}
		if round >= 3 {
			if _, err := st.DeleteRecipe(fmt.Sprintf("gen-%d", round-3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, recipeLogName))
	if err != nil {
		t.Fatal(err)
	}
	// 200 commits x ~2 KiB each would be ~400 KiB uncompacted; the live
	// set is 3 recipes. Anything near the slack floor proves rewriting.
	if fi.Size() > 2*recipeLogSlack {
		t.Fatalf("recipe journal grew to %d bytes despite churn", fi.Size())
	}
	st = openStore(t, dir, opts)
	defer st.Close()
	names := st.RecipeNames()
	if len(names) != 3 {
		t.Fatalf("recovered %d recipes, want the 3 live generations: %v", len(names), names)
	}
	for _, name := range names {
		r, _ := st.Recipe(name)
		if len(r) != len(big) {
			t.Fatalf("recipe %s recovered with %d entries, want %d", name, len(r), len(big))
		}
	}
}

// TestRetentionSpaceAmplification is the acceptance property in test
// form: generations of a churning image ingested with a sliding
// retention window, oldest deleted and store compacted each round —
// the on-disk footprint must end within 1.5x the live stored bytes,
// and every retained generation must restore byte-exactly.
func TestRetentionSpaceAmplification(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, ContainerSize: 64 << 10, Fsync: FsyncPolicy{Mode: FsyncNever}}
	st := openStore(t, dir, opts)
	defer func() { st.Close() }()

	const (
		gens    = 8
		retain  = 2
		size    = 2 << 20
		segSize = 16 << 10
	)
	chunkGen := func(data []byte) [][]byte {
		return splitChunks(data, 4<<10)
	}
	rng := workload.Random // alias for clarity
	data := rng(31, size)
	type gen struct {
		name string
		data []byte
		r    shardstore.Recipe
	}
	var live []gen
	for g := 1; g <= gens; g++ {
		if g > 1 {
			// 50% segment churn, chained.
			prev := data
			data = append([]byte(nil), prev...)
			for off := 0; off < len(data); off += 2 * segSize {
				end := off + segSize
				if end > len(data) {
					end = len(data)
				}
				copy(data[off:end], rng(31+int64(g)*1000+int64(off), end-off))
			}
		}
		name := fmt.Sprintf("gen-%d", g)
		r := ingestStream(t, st, name, chunkGen(data))
		live = append(live, gen{name, data, r})
		if len(live) > retain {
			oldest := live[0]
			live = live[1:]
			if _, err := st.DeleteRecipe(oldest.name); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Compact(0.7); err != nil {
			t.Fatal(err)
		}
	}
	for _, lg := range live {
		if data, err := st.Reconstruct(lg.r); err != nil || !bytes.Equal(data, lg.data) {
			t.Fatalf("retained %s broken: %v", lg.name, err)
		}
	}
	stored := st.Stats().StoredBytes
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var disk int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			disk += info.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if amp := float64(disk) / float64(stored); amp > 1.5 {
		t.Fatalf("space amplification %.2fx (%d disk / %d stored) exceeds 1.5x", amp, disk, stored)
	}
	// And it all recovers.
	st = openStore(t, dir, opts)
	for _, lg := range live {
		if data, err := st.Reconstruct(lg.r); err != nil || !bytes.Equal(data, lg.data) {
			t.Fatalf("after restart, %s broken: %v", lg.name, err)
		}
	}
}

// splitChunks cuts data into fixed-size pieces.
func splitChunks(data []byte, size int) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n := size
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// TestDeleteDurability: a delete acknowledged under FsyncAlways
// survives an unclean stop (no Close): the tombstone and the released
// references are both on disk.
func TestDeleteDurability(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, Fsync: FsyncPolicy{Mode: FsyncAlways}}
	st := openStore(t, dir, opts)
	ingestStream(t, st, "a", [][]byte{chunk256("a", 0)})
	ingestStream(t, st, "b", [][]byte{chunk256("b", 0)})
	if _, err := st.DeleteRecipe("a"); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate the process dying right after the delete ack
	// by recovering from a copy of the files as they are now.
	crash := t.TempDir()
	copyTree(t, dir, crash)
	st2 := openStore(t, crash, opts)
	defer st2.Close()
	if _, ok := st2.Recipe("a"); ok {
		t.Fatal("deleted recipe resurrected after crash")
	}
	if _, ok := st2.Has(dedup.Sum(chunk256("a", 0))); ok {
		t.Fatal("released chunk still indexed after crash")
	}
	if data, err := st2.Reconstruct(shardstore.Recipe{dedup.Sum(chunk256("b", 0))}); err != nil || !bytes.Equal(data, chunk256("b", 0)) {
		t.Fatalf("retained stream lost: %v", err)
	}
}

// TestPinnedRefcountSurvivesMoves: a chunk's reference count travels
// with it wherever its index entry is rebuilt — the compactor's move,
// the checkpoint that follows, and WAL replay of a relocation record.
func TestPinnedRefcountSurvivesMoves(t *testing.T) {
	opts := Options{Shards: 1, ContainerSize: 1 << 10, Fsync: FsyncPolicy{Mode: FsyncNever}}
	pinned := chunk256("pinned", 0)
	h := dedup.Sum(pinned)

	t.Run("compact and reopen", func(t *testing.T) {
		dir := t.TempDir()
		st := openStore(t, dir, opts)
		// The pinned chunk shares its container with chunks about to die,
		// so the compactor has to move it.
		dying, err := writeStream(st, [][]byte{pinned, chunk256("dying", 0), chunk256("dying", 1)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, missing, err := st.PinBatch([]shardstore.Hash{h}); err != nil || len(missing) != 0 {
				t.Fatalf("pin %d: %v, missing %v", i, err, missing)
			}
		}
		// Roll the open container, then kill the neighbours.
		ingestStream(t, st, "fill", [][]byte{chunk256("fill", 0), chunk256("fill", 1), chunk256("fill", 2), chunk256("fill", 3)})
		if _, err := st.Release(dying[1:]); err != nil {
			t.Fatal(err)
		}
		before, _ := st.Has(h)
		cs, err := st.Compact(0.9)
		if err != nil {
			t.Fatal(err)
		}
		after, _ := st.Has(h)
		if cs.MovedBytes != int64(len(pinned)) || after == before {
			t.Fatalf("pinned chunk did not move: %+v, ref %+v -> %+v", cs, before, after)
		}
		if rc := st.Refcount(h); rc != 3 {
			t.Fatalf("refcount %d after compaction, want 3", rc)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st = openStore(t, dir, opts)
		defer st.Close()
		if rc := st.Refcount(h); rc != 3 {
			t.Fatalf("refcount %d after reopen, want 3", rc)
		}
		if data, ok, err := st.GetByHash(h); !ok || err != nil || !bytes.Equal(data, pinned) {
			t.Fatalf("pinned chunk unreadable after reopen: ok=%v err=%v", ok, err)
		}
	})

	// Store.Compact always checkpoints, which rewrites the WAL without
	// relocation records; a crash between the moves and the checkpoint
	// leaves them to replay. Drive the backing directly to freeze there.
	t.Run("relocation replay", func(t *testing.T) {
		dir := t.TempDir()
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
		if _, _, err := sh.Append(h, pinned); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := sh.LogRefDelta(h, 1); err != nil {
				t.Fatal(err)
			}
		}
		_, off, err := sh.Relocate(h, pinned)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		st := openStore(t, dir, opts)
		defer st.Close()
		if ref, ok := st.Has(h); !ok || ref.Offset != off {
			t.Fatalf("recovered ref %+v (ok=%v), want the relocated offset %d", ref, ok, off)
		}
		if rc := st.Refcount(h); rc != 3 {
			t.Fatalf("refcount %d after relocation replay, want 3", rc)
		}
	})
}
