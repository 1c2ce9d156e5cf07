package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// scanSteps cuts data with a fresh Scanner of e the way a caller that
// owns the bytes does: call i adds steps[i mod len(steps)] fresh bytes
// (none at all is a legal call) to what the Scanner was last shown, and
// the stream ends with the call that adds its last byte. Every call's
// view is a new buffer and the previous one is overwritten first, so a
// Scanner that kept a reference into a view it was handed — or scanned
// a byte it should have been done with — cuts garbage. Every other
// call's view begins as late as the contract allows, Overlap bytes
// before the first un-cut byte; the ones between keep the base of the
// call before, as a caller filling one buffer over several calls does.
func scanSteps(t testing.TB, e Engine, data []byte, steps []int) []Chunk {
	t.Helper()
	sc := e.Scanner()
	var out []Chunk
	var base, cut int64
	var view []byte
	end, idle := 0, 0
	for i := 0; ; i++ {
		n := steps[i%len(steps)]
		if idle++; n > 0 {
			idle = 0
		} else if idle > len(steps) {
			n = 1 // a cycle of nothing but empty steps: move on
		}
		end = min(end+n, len(data))
		if i%2 == 0 {
			base = max(cut-int64(sc.Overlap()), 0)
		}
		for j := range view {
			view[j] ^= 0xA5
		}
		view = append([]byte(nil), data[base:end]...)
		err := sc.Scan(view, base, end == len(data), func(c Chunk) error {
			if c.Offset != cut || c.Length <= 0 || c.End() > int64(end) {
				return fmt.Errorf("chunk %+v after offset %d, with %d bytes shown", c, cut, end)
			}
			cut = c.End()
			out = append(out, c)
			return nil
		})
		if err != nil {
			t.Fatalf("Scan call %d (base %d, %d bytes shown): %v", i, base, end, err)
		}
		if end == len(data) {
			return out
		}
	}
}

// scanEngines cut small chunks, so that inputs of a few kilobytes
// cross many boundaries, forced cuts and suppressed candidates: Rabin
// without and with limits (MinSize above the window, MaxSize a handful
// of windows), FastCDC at its smallest, and FastCDC cut from
// candidates, which is what Parallel's Scanner does whatever the size
// of the input.
func scanEngines(t testing.TB) map[string]Engine {
	t.Helper()
	unbounded := DefaultSpec()
	unbounded.MaskBits = 6
	unbounded.Marker = 1<<6 - 1
	bounded := unbounded
	bounded.MinSize = 80
	bounded.MaxSize = 300
	small := Spec{Algo: AlgoFastCDC, AvgSize: 256, MinSize: 64, MaxSize: 1024, Normalization: 2}
	out := make(map[string]Engine)
	for name, spec := range map[string]Spec{"rabin-unbounded": unbounded, "rabin-bounded": bounded, "fastcdc": small} {
		e, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = e
	}
	out["fastcdc-candidates"] = NewParallel(out["fastcdc"], 2)
	return out
}

// FuzzScanInPlace: however a stream is split over Scan calls — one byte
// at a time, calls that add nothing, views that move — the Scanner
// emits exactly Split's chunks.
func FuzzScanInPlace(f *testing.F) {
	f.Add([]byte("hello, world"), []byte{1})
	f.Add(randomData(40, 9000), []byte{0, 1, 0, 0, 7})
	f.Add(randomData(41, 4<<10), []byte{255, 3, 0, 90})
	f.Add(make([]byte, 5000), []byte{47, 48, 49})
	f.Add(append(randomData(42, 3000), make([]byte, 3000)...), []byte{0})
	engines := scanEngines(f)
	f.Fuzz(func(t *testing.T, data, seg []byte) {
		// scanSteps copies the view for every call, and a view of
		// boundary-free bytes is the whole stream so far.
		data = data[:min(len(data), 4<<10)]
		steps := make([]int, 0, len(seg)+1)
		for _, b := range seg {
			steps = append(steps, int(b)*int(b)/16) // 0 .. 4064, dense at the small end
		}
		if len(steps) == 0 {
			steps = append(steps, len(data))
		}
		for name, e := range engines {
			t.Run(name, func(t *testing.T) {
				chunksEqual(t, e.Split(data), scanSteps(t, e, data, steps))
			})
		}
	})
}

// TestScanRejectsBrokenView: a view that skips bytes the Scanner still
// needs, or ends before one it has already seen, is refused rather than
// cut into chunks no scan of the stream would produce.
func TestScanRejectsBrokenView(t *testing.T) {
	data := randomData(43, 8<<10)
	none := func(Chunk) error { return nil }
	for name, e := range scanEngines(t) {
		sc := e.Scanner()
		if err := sc.Scan(data[:4<<10], 0, false, none); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sc.Scan(data[:2<<10], 0, false, none); !errors.Is(err, errScanView) {
			t.Errorf("%s: view shorter than the last one: %v", name, err)
		}
		if err := sc.Scan(data[4<<10:], 4<<10, false, none); !errors.Is(err, errScanView) {
			t.Errorf("%s: view that begins past the first un-cut byte: %v", name, err)
		}
	}
}

// streamEngines are the engines whose Stream the lifecycle tests run:
// every Scanner implementation behind the one stream type.
func streamEngines(t testing.TB) map[string]Engine {
	t.Helper()
	out := make(map[string]Engine)
	for name, spec := range testSpecs() {
		e, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = e
	}
	out["parallel-fastcdc-4k"] = NewParallel(out["fastcdc-4k"], 4)
	out["parallel-rabin-limited"] = NewParallel(out["rabin-limited"], 2)
	return out
}

// TestStreamLifecycle is the Stream contract besides the chunks, once
// for every engine: Offset counts what was written, an empty stream
// emits nothing, Close is idempotent and a Write after it fails.
func TestStreamLifecycle(t *testing.T) {
	for name, e := range streamEngines(t) {
		t.Run(name, func(t *testing.T) {
			emitted := 0
			s := e.Stream(func(Chunk, []byte) error { emitted++; return nil })
			if _, err := s.Write(nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if emitted != 0 || s.Offset() != 0 {
				t.Fatalf("empty stream: %d chunks emitted, offset %d", emitted, s.Offset())
			}

			s = e.Stream(func(Chunk, []byte) error { emitted++; return nil })
			for _, n := range []int{10 << 10, 1, 3 << 20} {
				before := s.Offset()
				if m, err := s.Write(randomData(9, n)); m != n || err != nil {
					t.Fatalf("Write of %d bytes = %d, %v", n, m, err)
				}
				if s.Offset() != before+int64(n) {
					t.Fatalf("offset %d after writing %d bytes at %d", s.Offset(), n, before)
				}
			}
			for i := 0; i < 2; i++ {
				if err := s.Close(); err != nil {
					t.Fatalf("Close %d: %v", i, err)
				}
			}
			if _, err := s.Write([]byte("x")); err == nil {
				t.Fatal("write after Close succeeded")
			}
			if emitted == 0 {
				t.Fatal("no chunks emitted")
			}
		})
	}
}

// TestStreamEmitError pins the Write rule documented on Stream: when
// emit fails, the Write that ran into it returns fewer bytes than it
// was given — those of its bytes that lie in chunks emit accepted — and
// the error, which every later call returns too.
func TestStreamEmitError(t *testing.T) {
	boom := errors.New("sink full")
	data := randomData(44, 3<<20)
	for name, e := range streamEngines(t) {
		t.Run(name, func(t *testing.T) {
			chunks := e.Split(data)
			if len(chunks) < 8 {
				t.Skipf("%d chunks in %d bytes", len(chunks), len(data))
			}
			for _, tc := range []struct {
				name   string
				write  int // bytes per Write
				failOn int // index of the chunk emit refuses
			}{
				{"first chunk of one large write", len(data), 0},
				{"chunk inside one large write", len(data), len(chunks) / 2},
				{"chunk spanning small writes", 1000, len(chunks) / 2},
				{"last chunk, at Close", 64 << 10, len(chunks) - 1},
			} {
				accepted := 0
				s := e.Stream(func(c Chunk, body []byte) error {
					if accepted == tc.failOn {
						return boom
					}
					if c != chunks[accepted] || !bytes.Equal(body, data[c.Offset:c.End()]) {
						t.Fatalf("%s: chunk %d is %+v, Split cuts %+v", tc.name, accepted, c, chunks[accepted])
					}
					accepted++
					return nil
				})
				var err error
				off := 0
				for off < len(data) && err == nil {
					p := data[off:min(off+tc.write, len(data))]
					var n int
					n, err = s.Write(p)
					if err == nil {
						if n != len(p) {
							t.Fatalf("%s: Write of %d bytes at %d = %d, nil", tc.name, len(p), off, n)
						}
						off += n
						continue
					}
					// The bytes of p in accepted chunks, and no others.
					want := max(int(chunks[tc.failOn].Offset)-off, 0)
					if err != boom || n != want || n >= len(p) {
						t.Fatalf("%s: failing Write of %d bytes at %d = %d, %v; want %d, %v", tc.name, len(p), off, n, err, want, boom)
					}
				}
				if err == nil {
					if tc.failOn != len(chunks)-1 {
						t.Fatalf("%s: every Write succeeded although emit refused chunk %d", tc.name, tc.failOn)
					}
					if err = s.Close(); err != boom {
						t.Fatalf("%s: Close = %v, want %v", tc.name, err, boom)
					}
				}
				if accepted != tc.failOn {
					t.Fatalf("%s: %d chunks accepted before the failure, want %d", tc.name, accepted, tc.failOn)
				}
				if n, err := s.Write([]byte("more")); n != 0 || err != boom {
					t.Fatalf("%s: Write after the failure = %d, %v", tc.name, n, err)
				}
				if err := s.Close(); err != boom {
					t.Fatalf("%s: Close after the failure = %v", tc.name, err)
				}
			}
		})
	}
}
