package shardstore

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"shredder/internal/dedup"
)

// testChunks builds n distinct chunks and their fingerprints.
func testChunks(n int) ([][]byte, []Hash) {
	chunks := make([][]byte, n)
	hs := make([]Hash, n)
	for i := range chunks {
		chunks[i] = []byte(fmt.Sprintf("chunk-%04d-%s", i, "padding-padding-padding"))
		hs[i] = dedup.Sum(chunks[i])
	}
	return chunks, hs
}

// TestMissingQuery: Missing returns exactly the ascending indices of
// absent fingerprints and agrees with HasBatch.
func TestMissingQuery(t *testing.T) {
	b, err := NewMemoryBacking(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	chunks, hs := testChunks(64)
	// Store the even-indexed chunks only.
	for i := 0; i < len(chunks); i += 2 {
		if _, _, err := put(s, chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	missing := s.Missing(hs)
	var want []int
	for i := 1; i < len(hs); i += 2 {
		want = append(want, i)
	}
	if !reflect.DeepEqual(missing, want) {
		t.Fatalf("Missing = %v, want %v", missing, want)
	}
	has := s.HasBatch(hs)
	for i, ok := range has {
		if ok == (i%2 == 1) {
			t.Fatalf("HasBatch[%d] = %v disagrees with Missing", i, ok)
		}
	}
	if got := s.Missing(nil); len(got) != 0 {
		t.Fatalf("Missing(nil) = %v", got)
	}
}

// TestPinBatch: present fingerprints are answered with their refs and
// one reference taken — accounted exactly like duplicate Puts — while
// absent ones come back as ascending missing indices untouched.
func TestPinBatch(t *testing.T) {
	s, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks, hs := testChunks(12)
	var wantRefs []Ref
	for i := 0; i < 6; i++ {
		ref, dup, err := put(s, chunks[i])
		if err != nil || dup {
			t.Fatalf("seed put %d: %v %v", i, err, dup)
		}
		wantRefs = append(wantRefs, ref)
	}
	before := s.Stats()

	refs, missing, err := s.PinBatch(hs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{6, 7, 8, 9, 10, 11}; !reflect.DeepEqual(missing, want) {
		t.Fatalf("missing = %v, want %v", missing, want)
	}
	var pinnedBytes int64
	for i := 0; i < 6; i++ {
		if refs[i] != wantRefs[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, refs[i], wantRefs[i])
		}
		if rc := s.Refcount(hs[i]); rc != 2 {
			t.Fatalf("refcount %d = %d after pin, want 2", i, rc)
		}
		pinnedBytes += refs[i].Length
	}
	for i := 6; i < 12; i++ {
		if (refs[i] != Ref{}) {
			t.Fatalf("missing index %d got ref %+v", i, refs[i])
		}
		if rc := s.Refcount(hs[i]); rc != 0 {
			t.Fatalf("absent fingerprint %d has refcount %d", i, rc)
		}
	}
	// The pins account exactly like 6 duplicate Puts.
	after := s.Stats()
	want := before
	want.Chunks += 6
	want.IndexHits += 6
	want.LogicalBytes += pinnedBytes
	if after != want {
		t.Fatalf("stats after pin %+v, want %+v", after, want)
	}
}

// TestPinBatchMatchesPutClassification: pin-then-upload produces the
// same refcounts and aggregate stats as plainly Put-ing the stream —
// the equivalence the dedup wire protocol is built on.
func TestPinBatchMatchesPutClassification(t *testing.T) {
	chunks, hs := testChunks(32)
	// stream: every chunk twice (first half unique, second half dups).
	stream := append(append([][]byte{}, chunks...), chunks...)

	ref, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := putBatch(ref, stream); err != nil {
		t.Fatal(err)
	}

	s, err := New(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: nothing present, upload all.
	refs, missing, err := s.PinBatch(hs)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != len(hs) {
		t.Fatalf("fresh store pinned %d", len(hs)-len(missing))
	}
	if _, _, err := s.PutHashedBatch(hs, chunks); err != nil {
		t.Fatal(err)
	}
	// Round 2: everything pins.
	refs, missing, err = s.PinBatch(hs)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("second round missing %v", missing)
	}
	_ = refs
	if a, b := ref.Stats(), s.Stats(); a != b {
		t.Fatalf("stats diverge: put-path %+v pin-path %+v", a, b)
	}
	for i := range hs {
		if a, b := ref.Refcount(hs[i]), s.Refcount(hs[i]); a != b {
			t.Fatalf("refcount %d diverges: put-path %d pin-path %d", i, a, b)
		}
	}
}

// TestPutHashedBatchValidates: mismatched lengths are rejected.
func TestPutHashedBatchValidates(t *testing.T) {
	s, err := New(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks, hs := testChunks(8)
	if _, _, err := s.PutHashedBatch(hs[:4], chunks); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestConcurrentPinAndPut races pinners against inserters of the same
// fingerprint set and checks the books balance: every pin that
// answered "present" took a counted reference, every miss left no
// trace, and chunks + hits + uniques line up. Run with -race this
// also proves the locking.
func TestConcurrentPinAndPut(t *testing.T) {
	s, err := New(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	chunks, hs := testChunks(128)
	const writers, pinners = 4, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := putBatch(s, chunks); err != nil {
				t.Error(err)
			}
		}()
	}
	pinCounts := make([]int64, pinners)
	for p := 0; p < pinners; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			refs, missing, err := s.PinBatch(hs)
			if err != nil {
				t.Error(err)
				return
			}
			_ = refs
			pinCounts[p] = int64(len(hs) - len(missing))
		}(p)
	}
	wg.Wait()
	var pinned int64
	for _, n := range pinCounts {
		pinned += n
	}
	st := s.Stats()
	wantChunks := int64(writers*len(chunks)) + pinned
	if st.Chunks != wantChunks {
		t.Fatalf("chunks %d, want %d (%d pinned)", st.Chunks, wantChunks, pinned)
	}
	if st.UniqueChunks != int64(len(chunks)) {
		t.Fatalf("unique %d, want %d", st.UniqueChunks, len(chunks))
	}
	if st.IndexHits != wantChunks-int64(len(chunks)) {
		t.Fatalf("hits %d, want %d", st.IndexHits, wantChunks-int64(len(chunks)))
	}
	var rcTotal int64
	for i := range hs {
		rcTotal += s.Refcount(hs[i])
	}
	if rcTotal != wantChunks {
		t.Fatalf("refcount total %d, want %d", rcTotal, wantChunks)
	}
}
