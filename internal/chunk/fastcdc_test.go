package chunk

import (
	"bytes"
	"math/rand"
	"testing"
)

func randomData(seed int64, n int) []byte {
	d := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(d)
	return d
}

func mustFastCDC(t testing.TB, spec Spec) *FastCDC {
	t.Helper()
	e, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return e.(*FastCDC)
}

// TestFastCDCInvariants checks the contract every engine must honor:
// chunks tile the input exactly, and sizes respect the configured
// bounds (only the final chunk may undershoot MinSize).
func TestFastCDCInvariants(t *testing.T) {
	spec := FastCDCSpec(4 << 10)
	e := mustFastCDC(t, spec)
	data := randomData(1, 1<<20+4321)
	chunks := e.Split(data)
	if len(chunks) == 0 {
		t.Fatal("no chunks")
	}
	var off int64
	for i, c := range chunks {
		if c.Offset != off {
			t.Fatalf("chunk %d: offset %d, want %d", i, c.Offset, off)
		}
		if c.Length <= 0 || c.Length > int64(spec.MaxSize) {
			t.Fatalf("chunk %d: length %d outside (0, %d]", i, c.Length, spec.MaxSize)
		}
		if i < len(chunks)-1 && !c.Forced && c.Length <= int64(spec.MinSize) {
			t.Fatalf("chunk %d: content-defined boundary below min size (%d)", i, c.Length)
		}
		if !c.Forced && c.Fingerprint == 0 {
			t.Fatalf("chunk %d: content boundary with zero fingerprint", i)
		}
		off = c.End()
	}
	if off != int64(len(data)) {
		t.Fatalf("chunks cover %d bytes, want %d", off, len(data))
	}
}

// TestFastCDCAverageSize checks normalized chunking actually lands the
// size distribution near the target.
func TestFastCDCAverageSize(t *testing.T) {
	spec := FastCDCSpec(4 << 10)
	e := mustFastCDC(t, spec)
	data := randomData(2, 8<<20)
	chunks := e.Split(data)
	avg := float64(len(data)) / float64(len(chunks))
	if avg < float64(spec.AvgSize)/2 || avg > float64(spec.AvgSize)*2 {
		t.Fatalf("mean chunk size %.0f too far from target %d", avg, spec.AvgSize)
	}
}

// TestFastCDCDeterminism: same input, same spec, same chunks — and a
// different seed cuts differently (the anti-fingerprinting knob).
func TestFastCDCDeterminism(t *testing.T) {
	data := randomData(3, 1<<20)
	a := mustFastCDC(t, FastCDCSpec(4<<10)).Split(data)
	b := mustFastCDC(t, FastCDCSpec(4<<10)).Split(data)
	if len(a) != len(b) {
		t.Fatalf("same spec cut %d vs %d chunks", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs between identical engines", i)
		}
	}
	seeded := FastCDCSpec(4 << 10)
	seeded.Seed = 12345
	c := mustFastCDC(t, seeded).Split(data)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeded gear table produced identical boundaries")
	}
}

// TestFastCDCBoundaryResync is the property dedup depends on: after an
// edit near the start of a stream, boundaries realign and the shared
// suffix chunks identically.
func TestFastCDCBoundaryResync(t *testing.T) {
	e := mustFastCDC(t, FastCDCSpec(4<<10))
	suffix := randomData(4, 1<<20)
	a := append(randomData(5, 64<<10), suffix...)
	b := append(randomData(6, 80<<10), suffix...)
	tails := func(data []byte) map[int64]bool {
		m := make(map[int64]bool)
		for _, c := range e.Split(data) {
			m[int64(len(data))-c.End()] = true // distance from stream end
		}
		return m
	}
	ta, tb := tails(a), tails(b)
	shared := 0
	for k := range ta {
		if tb[k] {
			shared++
		}
	}
	if shared < len(ta)/2 {
		t.Fatalf("only %d of %d boundaries realigned after prefix edit", shared, len(ta))
	}
}

// TestFastCDCNormalizationTightensSpread: higher normalization levels
// must reduce the size spread around the target.
func TestFastCDCNormalizationTightensSpread(t *testing.T) {
	data := randomData(7, 8<<20)
	spread := func(level int) float64 {
		spec := FastCDCSpec(4 << 10)
		spec.Normalization = level
		chunks := mustFastCDC(t, spec).Split(data)
		var sum, sumSq float64
		for _, c := range chunks {
			sum += float64(c.Length)
			sumSq += float64(c.Length) * float64(c.Length)
		}
		n := float64(len(chunks))
		mean := sum / n
		return sumSq/n - mean*mean // variance
	}
	if s0, s3 := spread(0), spread(3); s3 >= s0 {
		t.Fatalf("normalization 3 variance %.0f not below level 0's %.0f", s3, s0)
	}
}

// TestFastCDCShortStreams: inputs at and below MinSize come back as
// one forced chunk; empty input yields none.
func TestFastCDCShortStreams(t *testing.T) {
	spec := FastCDCSpec(4 << 10)
	e := mustFastCDC(t, spec)
	if got := e.Split(nil); len(got) != 0 {
		t.Fatalf("empty input cut %d chunks", len(got))
	}
	for _, n := range []int{1, spec.MinSize, spec.MinSize + 1} {
		data := randomData(8, n)
		chunks := e.Split(data)
		var total int64
		for _, c := range chunks {
			total += c.Length
		}
		if total != int64(n) {
			t.Fatalf("%d-byte input: chunks cover %d", n, total)
		}
	}
}

// TestFastCDCStreamPayloads: the bytes handed to emit are exactly the
// slice of the logical stream the chunk describes.
func TestFastCDCStreamPayloads(t *testing.T) {
	e := mustFastCDC(t, FastCDCSpec(4<<10))
	data := randomData(10, 300<<10)
	s := e.Stream(func(c Chunk, payload []byte) error {
		if !bytes.Equal(payload, data[c.Offset:c.End()]) {
			t.Fatalf("payload mismatch for chunk at %d", c.Offset)
		}
		return nil
	})
	for i := 0; i < len(data); i += 7777 {
		end := i + 7777
		if end > len(data) {
			end = len(data)
		}
		if _, err := s.Write(data[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
