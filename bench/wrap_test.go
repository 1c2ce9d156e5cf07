package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"shredder/internal/dedup"
	"shredder/internal/persist"
	"shredder/internal/shardstore"
)

// The timing decorator must be invisible to the store: the same calls
// on a bare and on a decorated backing leave the same statistics,
// recipes and presence answers, and the optional capabilities the store
// probes for (group-commit Barrier, span attribution) stay reachable.
func TestTimedBackingIsTransparent(t *testing.T) {
	// Small containers, so that deleting a recipe leaves closed containers
	// for Compact to rewrite.
	opts := persist.Options{Fsync: persist.FsyncPolicy{Mode: persist.FsyncAlways}, CommitWindow: time.Millisecond,
		Shards: 2, ContainerSize: 8 << 10}
	open := func(decorate bool) (*shardstore.Store, *meter) {
		b, err := persist.Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		m := newMeter()
		m.on.Store(true)
		var backing shardstore.Backing = b
		if decorate {
			backing = newTimedBacking(b, newRecorder(m))
		}
		st, err := shardstore.Open(backing)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		return st, m
	}
	bare, _ := open(false)
	timed, m := open(true)

	var chunks [][]byte
	var hs []shardstore.Hash
	for i := 0; i < 200; i++ {
		c := []byte(fmt.Sprintf("chunk %04d %0900d", i%150, i%150)) // 50 duplicates
		chunks, hs = append(chunks, c), append(hs, dedup.Sum(c))
	}
	absent := dedup.Sum([]byte("never stored"))
	for _, st := range []*shardstore.Store{bare, timed} {
		if _, _, err := st.PutHashedBatch(hs, chunks); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.PinBatch(append(hs[:10:10], absent)); err != nil {
			t.Fatal(err)
		}
		if err := st.CommitRecipe("a", shardstore.Recipe(hs[:100])); err != nil {
			t.Fatal(err)
		}
		if err := st.CommitRecipe("b", shardstore.Recipe(hs[100:])); err != nil {
			t.Fatal(err)
		}
		if _, err := st.DeleteRecipe("a"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Compact(1); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := bare.Stats(), timed.Stats(); a != b {
		t.Errorf("stats differ: bare %+v, decorated %+v", a, b)
	}
	ra, _ := bare.Recipe("b")
	rb, ok := timed.Recipe("b")
	if !ok || !reflect.DeepEqual(ra, rb) {
		t.Error("recipe b differs")
	}
	if _, ok := timed.Recipe("a"); ok {
		t.Error("deleted recipe still present behind the decorator")
	}
	query := append(hs[:20:20], absent)
	if a, b := bare.Missing(query), timed.Missing(query); !reflect.DeepEqual(a, b) {
		t.Errorf("Missing differs: bare %v, decorated %v", a, b)
	}
	got, err := timed.Reconstruct(rb)
	if err != nil || len(got) == 0 {
		t.Errorf("reconstruct through the decorator: %d bytes, %v", len(got), err)
	}

	// Group commit reaches the durable backing only through Barrier: the
	// store must have found it on the decorator, and the calls must have
	// been timed.
	if n := m.t[tBarrier].calls.Load(); n == 0 {
		t.Error("no Barrier call reached the decorator under a commit window")
	}
	for id, name := range tallyNames {
		if id >= tAppend && id != tSync && m.t[id].calls.Load() == 0 {
			t.Errorf("%s was never counted", name)
		}
	}
	var tb shardstore.Backing = newTimedBacking(mustOpen(t, opts), newRecorder(newMeter()))
	if _, ok := tb.(spanSetter); !ok {
		t.Error("decorated backing hides SetSpan")
	}
	if _, ok := tb.Shard(0).(spanSetter); !ok {
		t.Error("decorated shard hides SetSpan")
	}
}

func mustOpen(t *testing.T, opts persist.Options) *persist.Backing {
	t.Helper()
	b, err := persist.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return b
}
