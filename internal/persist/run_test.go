package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shredder/internal/dedup"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// openBacked opens a store and keeps hold of the backing under it.
func openBacked(t *testing.T, dir string, opts Options) (*shardstore.Store, *Backing) {
	t.Helper()
	b, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shardstore.Open(b)
	if err != nil {
		_ = b.Close()
		t.Fatal(err)
	}
	return st, b
}

// shardFiles reads every container and WAL of a data directory, keyed by
// path relative to it.
func shardFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	for _, pat := range []string{"shard-*/c-*.dat", "shard-*/" + walName} {
		paths, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(dir, p)
			files[rel] = data
		}
	}
	return files
}

// TestStagedRunBatchSizesByteIdentical: how many chunks a put carries
// decides how many container writes it takes, and nothing else. The same
// sequence put one chunk at a time — a write per chunk, the layout every
// earlier build produced — and in batches of 64 and 256 leaves the same
// bytes in every container and every shard WAL, through container rolls
// that fall in the middle of a batch.
func TestStagedRunBatchSizesByteIdentical(t *testing.T) {
	// ~600 chunks of 1–9 KiB, every seventh a repeat, over two shards
	// with 128 KiB containers: a 256-chunk batch spans several rolls per
	// shard.
	src := workload.Random(11, 4<<20)
	var chunks [][]byte
	for off, i := 0, 0; i < 600; i++ {
		n := 1<<10 + int(src[off])<<5
		chunks = append(chunks, src[off:off+n])
		off += n
		if i%7 == 6 {
			chunks = append(chunks, chunks[i/2])
		}
	}
	hs := make([]dedup.Hash, len(chunks))
	for i, c := range chunks {
		hs[i] = dedup.Sum(c)
	}
	opts := Options{Shards: 2, ContainerSize: 128 << 10, Fsync: FsyncPolicy{Mode: FsyncNever}}
	var want map[string][]byte
	var writesAtOne int64
	for _, batch := range []int{1, 64, 256} {
		dir := t.TempDir()
		st, b := openBacked(t, dir, opts)
		for lo := 0; lo < len(chunks); lo += batch {
			hi := min(lo+batch, len(chunks))
			if _, _, err := st.PutHashedBatch(hs[lo:hi], chunks[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		writes := b.met.containerWrites.Load()
		var stored int64
		for i := range b.shards {
			if n := b.shards[i].Containers(); n < 4 {
				t.Fatalf("batch %d: shard %d rolled to only %d containers", batch, i, n)
			}
			for ci := 0; ci < b.shards[i].Containers(); ci++ {
				stored += b.shards[i].ContainerLen(ci)
			}
		}
		if got := b.met.containerWriteBytes.Load(); got != stored {
			t.Fatalf("batch %d: %d bytes written to containers holding %d", batch, got, stored)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		got := shardFiles(t, dir)
		if batch == 1 {
			want, writesAtOne = got, writes
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d left %d shard files, batch 1 left %d", batch, len(got), len(want))
		}
		for name, data := range want {
			if !bytes.Equal(got[name], data) {
				t.Errorf("batch %d: %s differs from the one-chunk-per-put layout (%d vs %d bytes)", batch, name, len(got[name]), len(data))
			}
		}
		if writes*4 > writesAtOne {
			t.Errorf("batch %d took %d container writes, one chunk per put takes %d", batch, writes, writesAtOne)
		}
	}
}

// TestContainerWriteFailure closes the open container's file under the
// shard, so the next flush's container write fails: the batch's Commit
// reports the cause, its insert records stay out of the WAL, the
// container's size does not move, and what a reopen recovers — with
// every chunk re-hashed — is the store as it was before the batch.
func TestContainerWriteFailure(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, ContainerSize: 1 << 20, Fsync: FsyncPolicy{Mode: FsyncNever}}
	st, b := openBacked(t, dir, opts)
	var first, second [][]byte
	for i := 0; i < 10; i++ {
		first = append(first, []byte(fmt.Sprintf("first batch, chunk %d", i)))
		second = append(second, []byte(fmt.Sprintf("second batch, chunk %d", i)))
	}
	if _, _, err := st.PutBatch(first); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	sh := b.shards[0]
	walPath := filepath.Join(sh.dir, walName)
	conPath := filepath.Join(sh.dir, fmt.Sprintf(containerFormat, 0))
	size := func(path string) int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	walBefore, conBefore := size(walPath), size(conPath)
	if err := sh.containers[0].f.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, err := st.PutBatch(second)
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("put over a closed container file returned %v, want the write's own error", err)
	}
	if got := size(walPath); got != walBefore {
		t.Errorf("WAL grew from %d to %d bytes although the batch's chunk bytes never landed", walBefore, got)
	}
	if got := size(conPath); got != conBefore || sh.containers[0].size != conBefore {
		t.Errorf("container is %d bytes on disk, %d by the shard's count, %d before the failed write", got, sh.containers[0].size, conBefore)
	}
	// The batch stays staged, so every later flush fails the same way
	// rather than journal around the hole.
	if err := sh.Commit(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("the next Commit returned %v, want the same failure", err)
	}
	_ = st.Close() // fails for the same reason; the files are what matters now

	opts.VerifyOnRecover = true
	st = openStore(t, dir, opts)
	defer st.Close()
	if got := st.Stats(); got != before {
		t.Fatalf("recovered %+v, want the pre-batch %+v", got, before)
	}
	for i := range first {
		if got, ok, err := st.GetByHash(dedup.Sum(first[i])); err != nil || !ok || !bytes.Equal(got, first[i]) {
			t.Fatalf("first-batch chunk %d after reopen: ok=%v err=%v", i, ok, err)
		}
		if _, ok := st.Has(dedup.Sum(second[i])); ok {
			t.Fatalf("failed batch's chunk %d was recovered", i)
		}
	}
}

// TestStagedRangeDefined pins what the shard answers about bytes it has
// accepted and not yet written: ContainerLen counts them, Read returns
// them, and neither answer changes when the flush moves them to the
// file.
func TestStagedRangeDefined(t *testing.T) {
	dir := t.TempDir()
	st, b := openBacked(t, dir, Options{Shards: 1, ContainerSize: 64 << 10, Fsync: FsyncPolicy{Mode: FsyncNever}})
	defer st.Close()
	sh := b.shards[0]
	if err := appendCommit(sh, "written before the run"); err != nil {
		t.Fatal(err)
	}
	written := sh.ContainerLen(0)
	bodies := [][]byte{[]byte("staged one"), bytes.Repeat([]byte("two"), 1000), []byte("staged three")}
	offs := make([]int64, len(bodies))
	for i, body := range bodies {
		ci, off, err := sh.Append(dedup.Sum(body), body)
		if err != nil || ci != 0 {
			t.Fatalf("append %d: container %d, err %v", i, ci, err)
		}
		offs[i] = off
	}
	check := func(when string) {
		t.Helper()
		want := written
		for i, body := range bodies {
			if offs[i] != want {
				t.Fatalf("%s: chunk %d placed at %d, want %d", when, i, offs[i], want)
			}
			want += int64(len(body))
			got, err := sh.Read(0, offs[i], int64(len(body)))
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("%s: Read of chunk %d: %q, err %v", when, i, got, err)
			}
		}
		if got := sh.ContainerLen(0); got != want {
			t.Fatalf("%s: ContainerLen %d, want %d", when, got, want)
		}
		if _, err := sh.Read(0, want-1, 2); err == nil {
			t.Fatalf("%s: Read past the last staged byte succeeded", when)
		}
	}
	check("staged")
	fi, err := os.Stat(filepath.Join(sh.dir, fmt.Sprintf(containerFormat, 0)))
	if err != nil || fi.Size() != written {
		t.Fatalf("container file is %d bytes before the flush, want %d (err %v)", fi.Size(), written, err)
	}
	// A chunk that does not fit rolls the container, which writes the
	// old one's run out first.
	big := bytes.Repeat([]byte{7}, 63<<10)
	if ci, off, err := sh.Append(dedup.Sum(big), big); err != nil || ci != 1 || off != 0 {
		t.Fatalf("rolling append landed at container %d offset %d, err %v", ci, off, err)
	}
	check("after the roll")
	if fi, err = os.Stat(filepath.Join(sh.dir, fmt.Sprintf(containerFormat, 0))); err != nil || fi.Size() != sh.ContainerLen(0) {
		t.Fatalf("container 0 is %d bytes on disk after the roll, want %d (err %v)", fi.Size(), sh.ContainerLen(0), err)
	}
	if got, err := sh.Read(1, 0, int64(len(big))); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Read of the new container's staged chunk: err %v", err)
	}
	if err := sh.Commit(); err != nil {
		t.Fatal(err)
	}
	check("flushed")
}
