package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shredder/internal/shardstore"
)

// TestManifestSyncedBeforeOpenReturns: first open writes MANIFEST through
// the package's one atomic replace, so its bytes are fsynced — seen at
// the fsync seam — before the rename that names them, and before Open
// returns. A MANIFEST renamed into place unsynced can survive a power
// loss empty, and every later Open would refuse the directory.
func TestManifestSyncedBeforeOpenReturns(t *testing.T) {
	rec := newSyncRecorder()
	hookFsync(t, rec.sync)
	dir := t.TempDir()
	b, err := Open(dir, Options{Shards: 2, Fsync: FsyncPolicy{Mode: FsyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	path := filepath.Join(dir, manifestName)
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(body), "shredder-persist v2\nshards 2\n") {
		t.Fatalf("manifest reads %q", body)
	}
	rec.mu.Lock()
	synced, ok := rec.synced[path+".tmp"]
	rec.mu.Unlock()
	if !ok || synced != int64(len(body)) {
		t.Fatalf("Open returned with %d of the manifest's %d bytes fsynced (temp file seen at the seam: %v)", synced, len(body), ok)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("manifest temp file left behind (stat: %v)", err)
	}
}

// blockRename makes the next rewrite of the journal at path fail at its
// rename: the name is taken by a non-empty directory. The backing keeps
// its open handle on the unlinked file, so appends before the rewrite
// still succeed. repair puts back the bytes the journal held.
func blockRename(t *testing.T, path string) (repair func()) {
	t.Helper()
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, saved, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalRewriteFailStop: a journal rewrite that dies after the old
// file is closed — here at the rename — returns the root cause and
// latches it: every later append to that journal fails wrapping the same
// error, rather than writing to a handle that is gone. Once the fault is
// repaired, a reopen recovers what the journal's file held before the
// rewrite. One journal type, so one test, run over both of its users.
func TestJournalRewriteFailStop(t *testing.T) {
	opts := Options{Shards: 1, ContainerSize: 1 << 10, Fsync: FsyncPolicy{Mode: FsyncNever}}
	var keepChunks, dropChunks [][]byte
	for i := 0; i < 8; i++ { // 2 KiB each: two containers per stream
		keepChunks = append(keepChunks, chunk256("keep", i))
		dropChunks = append(dropChunks, chunk256("drop", i))
	}
	fat := func(version byte) shardstore.Recipe { // ~38 KiB framed: three outgrow recipeLogSlack
		r := make(shardstore.Recipe, 1200)
		for i := range r {
			r[i] = testHash(version)
			r[i][1], r[i][2] = byte(i), byte(i>>8)
		}
		return r
	}
	for _, tc := range []struct {
		name    string
		journal string // relative to the data directory
		// prime leaves the journal one call short of a rewrite.
		prime func(t *testing.T, st *shardstore.Store)
		// rewrite is that call; later is an append to the same journal.
		rewrite func(st *shardstore.Store) error
		later   func(st *shardstore.Store, i int) error
		// recovered, when set, checks what only this journal holds, after
		// the reopen.
		recovered func(t *testing.T, st *shardstore.Store)
	}{
		{
			name:    "shard WAL checkpoint",
			journal: filepath.Join("shard-0000", walName),
			prime: func(t *testing.T, st *shardstore.Store) {
				ingestStream(t, st, "drop", dropChunks)
				ingestStream(t, st, "fill", [][]byte{chunk256("fill", 0)}) // rolls the open container
				if _, err := st.DeleteRecipe("drop"); err != nil {
					t.Fatal(err)
				}
			},
			rewrite: func(st *shardstore.Store) error {
				_, err := st.Compact(0.5)
				return err
			},
			later: func(st *shardstore.Store, i int) error {
				_, _, err := put(st, chunk256("later", i))
				return err
			},
		},
		{
			name:    "recipe log compaction",
			journal: recipeLogName,
			prime: func(t *testing.T, st *shardstore.Store) {
				for v := byte(1); v <= 2; v++ {
					if err := st.CommitRecipe("vm", fat(v)); err != nil {
						t.Fatal(err)
					}
				}
			},
			rewrite: func(st *shardstore.Store) error { return st.CommitRecipe("vm", fat(3)) },
			later: func(st *shardstore.Store, i int) error {
				if i%2 == 0 {
					return st.CommitRecipe(fmt.Sprintf("later-%d", i), shardstore.Recipe{testHash(9)})
				}
				_, err := st.DeleteRecipe("keep")
				return err
			},
			recovered: func(t *testing.T, st *shardstore.Store) {
				if got, _ := st.Recipe("vm"); len(got) != 1200 || got[0] != fat(2)[0] {
					t.Fatalf("recipe vm recovered with %d entries, want the second version's 1200", len(got))
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir, opts)
			keep := ingestStream(t, st, "keep", keepChunks)
			tc.prime(t, st)
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			want := st.Stats()
			repair := blockRename(t, filepath.Join(dir, tc.journal))

			root := tc.rewrite(st)
			var linkErr *os.LinkError
			if !errors.As(root, &linkErr) || linkErr.Op != "rename" {
				t.Fatalf("rewrite returned %v, want the failed rename itself", root)
			}
			for i := 0; i < 3; i++ {
				err := tc.later(st, i)
				if !errors.Is(err, root) || !strings.Contains(err.Error(), "journal unavailable after failed rewrite") {
					t.Fatalf("append %d after the failed rewrite: %v, want the fail-stop wrapping %v", i, err, root)
				}
			}
			_ = st.Close() // reports the fail-stop again

			repair()
			st = openStore(t, dir, Options{VerifyOnRecover: true, Fsync: FsyncPolicy{Mode: FsyncNever}})
			defer st.Close()
			if got := st.Stats(); got != want {
				t.Fatalf("recovered stats %+v, want %+v", got, want)
			}
			if data, err := st.Reconstruct(keep); err != nil || !bytes.Equal(data, bytes.Join(keepChunks, nil)) {
				t.Fatalf("stream keep broken after repair: %v", err)
			}
			if tc.recovered != nil {
				tc.recovered(t, st)
			}
			if _, _, err := put(st, chunk256("after repair", 0)); err != nil {
				t.Fatalf("put on the repaired store: %v", err)
			}
		})
	}
}
