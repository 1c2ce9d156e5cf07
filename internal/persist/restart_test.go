package persist

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// serveConn wires one in-memory client session to a server.
func serveConn(srv *ingest.Server) *ingest.Session {
	cend, send := net.Pipe()
	go func() {
		defer send.Close()
		_ = srv.ServeConn(send)
	}()
	return ingest.NewSession(cend)
}

// TestServerRestartRoundTrip is the acceptance path for the
// persistence layer: a multi-VM series ingested through ingest.Server
// backed by a durable store, the store closed (the "restart"), then
// reopened from the data directory — every recorded name must restore
// byte-exactly, the dedup statistics must be preserved, and the
// recovered index must keep deduplicating new streams.
func TestServerRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 8, Fsync: FsyncPolicy{Mode: FsyncNever}}

	// The series: two VMs, each a master plus two snapshots, ingested
	// over concurrent sessions like the §7.2 consolidation experiment.
	streams := make(map[string][]byte)
	var names []string
	for vm := 0; vm < 2; vm++ {
		seed := int64(100 * (vm + 1))
		im := workload.NewImage(seed, 1<<20, 64<<10, 0.1)
		name := fmt.Sprintf("vm%d-master", vm)
		streams[name] = im.Master
		names = append(names, name)
		for s := 1; s <= 2; s++ {
			name = fmt.Sprintf("vm%d-snapshot-%d", vm, s)
			streams[name] = im.Snapshot(seed + int64(s))
			names = append(names, name)
		}
	}

	store := openStore(t, dir, opts)
	srv, err := ingest.NewServerWithStore(ingest.DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			c := serveConn(srv)
			defer c.Close()
			if _, err := c.BackupBytes(name, streams[name]); err != nil {
				errs[i] = err
			}
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	before := store.Stats()
	if before.IndexHits == 0 {
		t.Fatal("series produced no duplicate hits; workload broken")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: reopen the data dir under a fresh server.
	store = openStore(t, dir, opts)
	defer store.Close()
	if after := store.Stats(); after != before {
		t.Fatalf("recovered stats %+v, want %+v", after, before)
	}
	srv, err = ingest.NewServerWithStore(ingest.DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	c := serveConn(srv)
	defer c.Close()
	for _, name := range names {
		if err := c.Verify(name, streams[name]); err != nil {
			t.Fatalf("after restart, %s: %v", name, err)
		}
	}

	// A re-pushed stream must be recognized as fully duplicate by the
	// recovered index.
	st, err := c.BackupBytes("vm0-again", streams["vm0-master"])
	if err != nil {
		t.Fatal(err)
	}
	if st.DupChunks != st.Chunks {
		t.Fatalf("re-pushed stream: %d of %d chunks deduplicated", st.DupChunks, st.Chunks)
	}
}

// TestServerRestartAfterWALTruncation combines the service path with
// crash injection: tear the final record off one shard's WAL and make
// sure the server comes back and serves the streams whose chunks
// survived intact.
func TestServerRestartAfterWALTruncation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, Fsync: FsyncPolicy{Mode: FsyncNever}}
	store := openStore(t, dir, opts)
	srv, err := ingest.NewServerWithStore(ingest.DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	im := workload.NewImage(7, 512<<10, 64<<10, 0.1)
	c := serveConn(srv)
	if _, err := c.BackupBytes("master", im.Master); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear half of the final WAL record off.
	truncateTail(t, dir, 3)

	store = openStore(t, dir, opts)
	defer store.Close()
	after := store.Stats()
	if after.UniqueChunks == 0 {
		t.Fatal("recovery lost everything")
	}
	// The torn tail dropped the last record. If it was the final insert,
	// one chunk of the recipe now dangles and Reconstruct must fail
	// through the normal error path rather than return corrupt bytes; if
	// it was a refcount delta, the stream is still fully intact.
	r, ok := store.Recipe("master")
	if !ok {
		t.Fatal("recipe lost")
	}
	if data, err := store.Reconstruct(r); err == nil {
		if !bytes.Equal(data, im.Master) {
			t.Fatal("reconstruction succeeded with wrong bytes")
		}
	}
}

// TestDeleteRestartReingest covers the restart path after deletions —
// the gap the Missing/PinBatch differential tests had: a stream is
// expired over the wire, the store restarts, and the recovered
// presence answers (Store.Missing, PinBatch's missing set) must both
// agree that the freed chunks are gone while the shared ones survive;
// a re-ingest then uploads exactly the freed bodies and restores
// byte-exactly.
func TestDeleteRestartReingest(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, Fsync: FsyncPolicy{Mode: FsyncNever}}
	spec := chunk.FastCDCSpec(4 << 10)
	im := workload.NewImage(55, 1<<20, 64<<10, 0.5)
	snap := im.Snapshot(56)

	store := openStore(t, dir, opts)
	srv, err := ingest.NewServerWithStore(ingest.DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	c := serveConn(srv)
	if _, err := c.NegotiateDedup(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BackupDedupBytes("master", im.Master); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BackupDedupBytes("snap", snap); err != nil {
		t.Fatal(err)
	}
	// The full fingerprint population of both streams, for presence
	// queries below.
	eng, err := chunk.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	hashesOf := func(img []byte) []shardstore.Hash {
		var hs []shardstore.Hash
		for _, ck := range eng.Split(img) {
			hs = append(hs, dedup.Sum(img[ck.Offset:ck.End()]))
		}
		return hs
	}
	all := append(hashesOf(im.Master), hashesOf(snap)...)

	ds, err := store.DeleteRecipe("master")
	if err != nil {
		t.Fatal(err)
	}
	if ds.ChunksFreed == 0 {
		t.Fatal("delete freed nothing at 50% churn")
	}
	wantMissing := store.Missing(all)
	if len(wantMissing) == 0 {
		t.Fatal("no fingerprints missing after delete")
	}
	c.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the recovered store agrees with the pre-restart one.
	backing, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err = shardstore.Open(backing)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := store.Missing(all); !reflect.DeepEqual(got, wantMissing) {
		t.Fatalf("recovered store Missing = %v, want %v", got, wantMissing)
	}
	if _, ok := store.Recipe("master"); ok {
		t.Fatal("deleted recipe recovered")
	}

	// PinBatch's missing set matches Missing (and its pins are real:
	// undo them via a delete of the recipe we then commit).
	_, pinMissing, err := store.PinBatch(all)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pinMissing, wantMissing) {
		t.Fatalf("PinBatch missing = %v, want %v", pinMissing, wantMissing)
	}
	var pinned shardstore.Recipe
	mi := 0
	for i, h := range all {
		if mi < len(pinMissing) && pinMissing[mi] == i {
			mi++
			continue
		}
		pinned = append(pinned, h)
	}
	if err := store.CommitRecipe("pins", pinned); err != nil {
		t.Fatal(err)
	}
	if _, err := store.DeleteRecipe("pins"); err != nil {
		t.Fatal(err)
	}

	// Re-ingest the deleted stream: exactly the freed bodies cross the
	// wire again, and everything restores byte-exactly.
	srv, err = ingest.NewServerWithStore(ingest.DefaultConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	c = serveConn(srv)
	defer c.Close()
	if _, err := c.NegotiateDedup(spec); err != nil {
		t.Fatal(err)
	}
	st, err := c.BackupDedupBytes("master", im.Master)
	if err != nil {
		t.Fatal(err)
	}
	masterMissing := 0
	for _, i := range wantMissing {
		if i < len(hashesOf(im.Master)) {
			masterMissing++
		}
	}
	if st.Wire.ChunksSent != int64(masterMissing) {
		t.Fatalf("re-ingest uploaded %d bodies, want the %d the delete freed", st.Wire.ChunksSent, masterMissing)
	}
	for name, want := range map[string][]byte{"master": im.Master, "snap": snap} {
		if err := c.Verify(name, want); err != nil {
			t.Fatalf("after delete+restart+re-ingest, %s: %v", name, err)
		}
	}
}

// truncateTail removes n bytes from the end of shard 0's WAL.
func truncateTail(t *testing.T, dir string, n int64) {
	t.Helper()
	path := filepath.Join(dir, "shard-0000", walName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}
