package chunk

import (
	"bytes"
	"fmt"
	"testing"

	"shredder/internal/chunker"
)

// testSpecs are the configurations the differential tests sweep: both
// algorithms, with and without size limits, different targets.
func testSpecs() map[string]Spec {
	limited := DefaultSpec()
	limited.MaskBits = 12
	limited.Marker = 1<<12 - 1
	limited.MinSize = 2 << 10
	limited.MaxSize = 32 << 10
	smallCDC := FastCDCSpec(1 << 10)
	bigCDC := FastCDCSpec(64 << 10)
	bigCDC.Normalization = 1
	return map[string]Spec{
		"rabin-default":   DefaultSpec(),
		"rabin-limited":   limited,
		"fastcdc-4k":      FastCDCSpec(4 << 10),
		"fastcdc-1k":      smallCDC,
		"fastcdc-64k-nc1": bigCDC,
	}
}

// TestSplitEqualsStreaming is the core engine contract, mirroring
// core/spanning_test.go at the engine layer: Split over a whole buffer
// and an incremental Stream fed arbitrary write sizes — including
// writes far smaller and far larger than a chunk, so chunks span many
// feeds — must cut identical chunks.
func TestSplitEqualsStreaming(t *testing.T) {
	data := randomData(20, 1<<20+12345)
	feeds := []int{1, 7, 100, 4096, 64 << 10, 1 << 20, len(data) + 1}
	for name, spec := range testSpecs() {
		t.Run(name, func(t *testing.T) {
			e, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := e.Split(data)
			var whole []byte
			for _, c := range want {
				whole = append(whole, data[c.Offset:c.End()]...)
			}
			if !bytes.Equal(whole, data) {
				t.Fatal("Split chunks do not tile the input")
			}
			for _, feed := range feeds {
				var got []Chunk
				s := e.Stream(func(c Chunk, payload []byte) error {
					got = append(got, c)
					if !bytes.Equal(payload, data[c.Offset:c.End()]) {
						t.Fatalf("feed %d: payload mismatch at offset %d", feed, c.Offset)
					}
					return nil
				})
				for i := 0; i < len(data); i += feed {
					end := i + feed
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
				if s.Offset() != int64(len(data)) {
					t.Fatalf("feed %d: stream offset %d, want %d", feed, s.Offset(), len(data))
				}
				if len(got) != len(want) {
					t.Fatalf("feed %d: %d chunks, want %d", feed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("feed %d chunk %d: %+v != %+v", feed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestRabinEngineMatchesReference: the engine must cut exactly what the
// sequential reference in package chunker cuts — the byte-for-byte
// compatibility the legacy ingest path depends on. The engine runs its
// own scan (scanRegion + resolve), so this is a differential between
// two implementations, over Split and over the stream at write sizes
// below, around and above a chunk: unbounded, with the service's
// limits, and with a small window whose MinSize suppresses most
// candidates and whose MaxSize forces cuts between them.
func TestRabinEngineMatchesReference(t *testing.T) {
	tight := DefaultSpec()
	tight.Window = 32
	tight.MaskBits = 9
	tight.Marker = 1<<9 - 1
	tight.MinSize = 400 // > Window
	tight.MaxSize = 1500
	specs := map[string]Spec{
		"rabin-default": testSpecs()["rabin-default"],
		"rabin-limited": testSpecs()["rabin-limited"],
		"rabin-tight":   tight,
	}
	data := randomData(21, 2<<20+777)
	copy(data[1<<20:], make([]byte, 100<<10)) // a run without boundaries
	for name, spec := range specs {
		e, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := chunker.New(spec.RabinParams())
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Split(data)
		check := func(path string, got []Chunk) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d chunks, want %d", name, path, len(got), len(want))
			}
			for i := range want {
				if got[i].Offset != want[i].Offset || got[i].Length != want[i].Length ||
					got[i].Fingerprint != uint64(want[i].Cut) || got[i].Forced != want[i].Forced {
					t.Fatalf("%s %s chunk %d: %+v != %+v", name, path, i, got[i], want[i])
				}
			}
		}
		check("Split", e.Split(data))
		for _, write := range []int{61, 4099, 256 << 10} {
			check(fmt.Sprintf("Stream/%d-byte writes", write), streamChunks(t, e, data, write))
		}
	}
}

// TestEnginesDisagree is the sanity check that the two algorithms are
// actually different: identical input, different boundaries.
func TestEnginesDisagree(t *testing.T) {
	data := randomData(22, 1<<20)
	r, _ := New(testSpecs()["rabin-limited"])
	f, _ := New(FastCDCSpec(4 << 10))
	a, b := r.Split(data), f.Split(data)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i].Length != b[i].Length {
				same = false
				break
			}
		}
		if same {
			t.Fatal("rabin and fastcdc cut identical boundaries; one is masquerading as the other")
		}
	}
}
