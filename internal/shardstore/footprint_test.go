package shardstore

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// indexFootprintBound is the retained heap the store may hold per
// unique 16-byte chunk at the population below, container bytes
// included: the sixteen open 4 MiB containers are 168 B of it, one
// index entry (32-byte fingerprint, Ref, count) in a Go map about
// 105 B, 273 B together. The store measured 451 B while it kept a
// reverse location map, a parallel refcount map and the backing's
// presence set next to the index.
const indexFootprintBound = 340

// TestIndexFootprint pins bytes of index per stored chunk — what
// bounds how many chunks a dedup site can hold — so a second per-chunk
// structure cannot come back unnoticed.
func TestIndexFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes under the race detector are not the store's")
	}
	const n = 400_000
	const batch = 1000
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	s, err := New(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16*batch)
	chunks := make([][]byte, batch)
	for i := 0; i < n; i += batch {
		for j := range chunks {
			chunks[j] = buf[16*j : 16*j+16]
			binary.BigEndian.PutUint64(chunks[j], uint64(i+j))
		}
		if _, _, err := putBatch(s, chunks); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	if got := s.Stats().UniqueChunks; got != n {
		t.Fatalf("stored %d unique chunks, want %d", got, n)
	}
	perChunk := float64(after-before) / n
	t.Logf("retained heap: %.0f B per unique chunk (bound %d)", perChunk, indexFootprintBound)
	if perChunk > indexFootprintBound {
		t.Fatalf("retained %.0f B per unique chunk, bound %d", perChunk, indexFootprintBound)
	}
	runtime.KeepAlive(s)
}
