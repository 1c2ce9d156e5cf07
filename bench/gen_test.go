package main

import (
	"bytes"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/ingest"
)

func TestSourcesAreDeterministicInTheSeed(t *testing.T) {
	for name, mk := range map[string]func(seed uint64) source{
		"unique":   func(seed uint64) source { return newUniqueSource(seed, 256<<10) },
		"snapshot": func(seed uint64) source { return newSnapshotSource(seed, 1<<20) },
	} {
		a, b, other := mk(7), mk(7), mk(8)
		for _, i := range []int{0, 1, 5, 2} { // 2 after 5: a snapshot source has to rewind
			got := append([]byte(nil), a.load(i)...)
			if !bytes.Equal(got, b.load(i)) {
				t.Errorf("%s: stream %d differs between two sources of one seed", name, i)
			}
			if bytes.Equal(got, other.load(i)) {
				t.Errorf("%s: stream %d is the same under another seed", name, i)
			}
			if i > 0 && bytes.Equal(got, mk(7).load(i-1)) {
				t.Errorf("%s: streams %d and %d are the same", name, i-1, i)
			}
		}
	}
}

func TestSourcesDoNotAllocateAfterWarmUp(t *testing.T) {
	u := newUniqueSource(1, 256<<10)
	s := newSnapshotSource(1, 1<<20)
	s.load(0)
	i := 0
	if n := testing.AllocsPerRun(20, func() { i++; u.load(i); s.load(i) }); n != 0 {
		t.Errorf("loading a stream allocates %v times", n)
	}
}

// Every chunk of a unique stream must be new to the store, whatever
// engine cuts it: the raw-wire workloads check for zero duplicate chunks.
func TestUniqueStreamsShareNoChunk(t *testing.T) {
	u := newUniqueSource(3, 1<<20)
	for _, spec := range []chunk.Spec{chunk.FastCDCSpec(4 << 10), ingest.DefaultConfig().Shredder.Chunking} {
		eng, err := chunk.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[dedup.Hash]int{}
		for i := 0; i < 4; i++ {
			data := u.load(i)
			for _, c := range eng.Split(data) {
				h := dedup.Sum(data[c.Offset:c.End()])
				if j, dup := seen[h]; dup {
					t.Fatalf("%v: streams %d and %d share a %d-byte chunk", spec.Algo, j, i, c.Length)
				}
				seen[h] = i
			}
		}
	}
}

func TestSnapshotChangesAboutATenth(t *testing.T) {
	s := newSnapshotSource(5, 4<<20)
	prev := append([]byte(nil), s.load(0)...)
	cur := s.load(1)
	changed := 0
	for off := 0; off < len(cur); off += snapshotSegment {
		if !bytes.Equal(prev[off:off+snapshotSegment], cur[off:off+snapshotSegment]) {
			changed++
		}
	}
	if segs := len(cur) / snapshotSegment; changed == 0 || changed > segs/10 {
		t.Errorf("%d of %d segments changed", changed, segs)
	}
}
