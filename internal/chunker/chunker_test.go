package chunker

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"shredder/internal/rabin"
)

func testData(seed int64, n int) []byte {
	d := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(d)
	return d
}

func mustNew(t testing.TB, p Params) *Chunker {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkCover verifies chunks exactly tile [0, total).
func checkCover(t *testing.T, chunks []Chunk, total int64) {
	t.Helper()
	var off int64
	for i, c := range chunks {
		if c.Offset != off {
			t.Fatalf("chunk %d offset %d, want %d", i, c.Offset, off)
		}
		if c.Length <= 0 {
			t.Fatalf("chunk %d has non-positive length %d", i, c.Length)
		}
		off = c.End()
	}
	if off != total {
		t.Fatalf("chunks cover %d bytes, want %d", off, total)
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Window = 1 },
		func(p *Params) { p.Polynomial = 0xFF }, // degree 7
		func(p *Params) { p.MaskBits = 0 },
		func(p *Params) { p.MaskBits = 60 },
		func(p *Params) { p.Marker = 1 << 13 },
		func(p *Params) { p.MinSize = -1 },
		func(p *Params) { p.MinSize = 4096; p.MaxSize = 4096 },
		func(p *Params) { p.MaxSize = 10 }, // below window
	}
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSplitCoversInput(t *testing.T) {
	c := mustNew(t, DefaultParams())
	for _, n := range []int{0, 1, 47, 48, 49, 1000, 1 << 16, 1<<20 + 17} {
		data := testData(int64(n), n)
		chunks := c.Split(data)
		if n == 0 {
			if len(chunks) != 0 {
				t.Fatalf("empty input produced %d chunks", len(chunks))
			}
			continue
		}
		checkCover(t, chunks, int64(n))
	}
}

func TestSplitReassembly(t *testing.T) {
	c := mustNew(t, DefaultParams())
	data := testData(11, 1<<18)
	var out []byte
	for _, ch := range c.Split(data) {
		out = append(out, data[ch.Offset:ch.End()]...)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("concatenated chunks do not reproduce input")
	}
}

func TestSplitMinMaxRespected(t *testing.T) {
	p := DefaultParams()
	p.MinSize = 2048
	p.MaxSize = 16384
	c := mustNew(t, p)
	data := testData(12, 1<<20)
	chunks := c.Split(data)
	checkCover(t, chunks, int64(len(data)))
	for i, ch := range chunks {
		if ch.Length > int64(p.MaxSize) {
			t.Fatalf("chunk %d length %d exceeds max %d", i, ch.Length, p.MaxSize)
		}
		// Every chunk except the last must respect the minimum.
		if i < len(chunks)-1 && !ch.Forced && ch.Length < int64(p.MinSize) {
			t.Fatalf("chunk %d length %d below min %d", i, ch.Length, p.MinSize)
		}
	}
}

func TestSplitEqualsBoundariesPlusLimits(t *testing.T) {
	// The GPU path computes raw boundaries and applies limits in the
	// Store thread; it must equal the inline sequential semantics.
	for _, cfg := range []struct{ min, max int }{
		{0, 0},
		{2048, 0},
		{0, 8192},
		{1024, 4096},
		{4096, 65536},
	} {
		p := DefaultParams()
		p.MinSize = cfg.min
		p.MaxSize = cfg.max
		c := mustNew(t, p)
		data := testData(13, 1<<19)
		raw := c.Boundaries(data)
		got := c.ApplyLimits(raw, nil, int64(len(data)))
		want := c.Split(data)
		if len(got) != len(want) {
			t.Fatalf("min=%d max=%d: %d chunks via limits, %d via split",
				cfg.min, cfg.max, len(got), len(want))
		}
		for i := range got {
			if got[i].Offset != want[i].Offset || got[i].Length != want[i].Length {
				t.Fatalf("min=%d max=%d chunk %d: limits (%d,%d) vs split (%d,%d)",
					cfg.min, cfg.max, i,
					got[i].Offset, got[i].Length, want[i].Offset, want[i].Length)
			}
		}
	}
}

func TestApplyLimitsFingerprints(t *testing.T) {
	c := mustNew(t, DefaultParams())
	data := testData(29, 1<<17)
	raw := c.Boundaries(data)
	fps := make([]rabin.Poly, len(raw))
	tab := c.Table()
	for i, b := range raw {
		fps[i] = tab.Fingerprint(data[b-int64(tab.Size()) : b])
	}
	chunks := c.ApplyLimits(raw, fps, int64(len(data)))
	for _, ch := range chunks {
		if ch.Forced {
			continue
		}
		if !c.IsBoundary(ch.Cut) {
			t.Fatalf("content chunk at %d carries non-boundary fingerprint %#x", ch.Offset, ch.Cut)
		}
	}
}

func TestExpectedChunkSize(t *testing.T) {
	// With a 13-bit mask the chunk size is geometric with mean 2^13.
	// On 4 MB of random data the observed mean should be within 25%.
	c := mustNew(t, DefaultParams())
	data := testData(14, 4<<20)
	chunks := c.Split(data)
	mean := float64(len(data)) / float64(len(chunks))
	if mean < 8192*0.75 || mean > 8192*1.25 {
		t.Fatalf("mean chunk size %.0f outside [6144, 10240]", mean)
	}
}

func TestBoundaryLocality(t *testing.T) {
	// Editing bytes inside one chunk must not move boundaries more than
	// one window before the edit or past the following boundary region.
	// This is the property that makes CDC useful for dedup.
	c := mustNew(t, DefaultParams())
	data := testData(15, 1<<18)
	orig := c.Boundaries(data)

	mod := make([]byte, len(data))
	copy(mod, data)
	editPos := len(data) / 2
	mod[editPos] ^= 0xA5
	edited := c.Boundaries(mod)

	// Boundaries strictly before editPos−window and strictly after
	// editPos+window must be identical sets.
	w := int64(c.Params().Window)
	filter := func(cuts []int64) []int64 {
		var out []int64
		for _, b := range cuts {
			if b < int64(editPos)-w || b > int64(editPos)+w {
				out = append(out, b)
			}
		}
		return out
	}
	a, b := filter(orig), filter(edited)
	if len(a) != len(b) {
		t.Fatalf("boundary count far from edit changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("boundary %d moved: %d -> %d", i, a[i], b[i])
		}
	}
}

func TestQuickSplitInvariants(t *testing.T) {
	p := DefaultParams()
	p.MinSize = 64
	p.MaxSize = 4096
	c := mustNew(t, p)
	f := func(data []byte) bool {
		chunks := c.Split(data)
		var off int64
		for _, ch := range chunks {
			if ch.Offset != off || ch.Length <= 0 || ch.Length > 4096 {
				return false
			}
			off = ch.End()
		}
		return off == int64(len(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	c := mustNew(t, DefaultParams())
	data := testData(19, 1<<16)
	a := c.Split(data)
	b := c.Split(data)
	if len(a) != len(b) {
		t.Fatal("non-deterministic chunk count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic chunking")
		}
	}
}

func TestChunkSum(t *testing.T) {
	c := mustNew(t, DefaultParams())
	data := testData(20, 1<<15)
	chunks := c.Split(data)
	seen := make(map[[32]byte]bool)
	for _, ch := range chunks {
		seen[ch.Sum(data)] = true
	}
	if len(seen) != len(chunks) {
		t.Log("duplicate chunk sums on random data (possible but astronomically unlikely)")
	}
	// A duplicated chunk must produce a duplicated sum.
	double := append(append([]byte{}, data...), data...)
	dchunks := c.Split(double)
	sums := make(map[[32]byte]int)
	for _, ch := range dchunks {
		sums[ch.Sum(double)]++
	}
	dups := 0
	for _, n := range sums {
		if n > 1 {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("doubling the input produced no duplicate chunk sums")
	}
}

func BenchmarkSplit(b *testing.B) {
	c := mustNew(b, DefaultParams())
	data := testData(21, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Split(data)
	}
}
