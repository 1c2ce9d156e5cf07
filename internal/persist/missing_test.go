package persist

import (
	"fmt"
	"reflect"
	"testing"

	"shredder/internal/dedup"
	"shredder/internal/shardstore"
)

// TestMissingSurvivesRestart: the store's presence query answers from
// recovered state exactly as it did before the restart, and reference
// counts taken by PinBatch (the dedup wire protocol's pin) are
// journaled like any duplicate hit and recovered exactly.
func TestMissingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	chunks := make([][]byte, 24)
	hs := make([]shardstore.Hash, len(chunks))
	for i := range chunks {
		chunks[i] = []byte(fmt.Sprintf("persisted-chunk-%04d-with-some-body", i))
		hs[i] = dedup.Sum(chunks[i])
	}

	store, err := OpenStore(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Store the first half, then pin it (refcount 2 each).
	if _, _, err := store.PutBatch(chunks[:12]); err != nil {
		t.Fatal(err)
	}
	if _, missing, err := store.PinBatch(hs[:12]); err != nil || len(missing) != 0 {
		t.Fatalf("pin: %v, missing %v", err, missing)
	}
	wantMissing := store.Missing(hs)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	backing, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err = shardstore.Open(backing)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if got := store.Missing(hs); !reflect.DeepEqual(got, wantMissing) {
		t.Fatalf("recovered store Missing = %v, want %v", got, wantMissing)
	}
	for i := 0; i < 12; i++ {
		if rc := store.Refcount(hs[i]); rc != 2 {
			t.Fatalf("recovered refcount %d = %d, want 2 (put + pin)", i, rc)
		}
	}
	// Appends after recovery are answered for too.
	if _, _, err := store.PutBatch(chunks[12:]); err != nil {
		t.Fatal(err)
	}
	if got := store.Missing(hs); len(got) != 0 {
		t.Fatalf("store still missing %v after full ingest", got)
	}
}
