package chunk

import (
	"errors"
	"testing"
)

func TestParseAlgo(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Algo
	}{{"rabin", AlgoRabin}, {"fastcdc", AlgoFastCDC}} {
		got, err := ParseAlgo(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseAlgo(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseAlgo("gear2000"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	if err := FastCDCSpec(8 << 10).Validate(); err != nil {
		t.Fatalf("default fastcdc spec invalid: %v", err)
	}
	bad := []Spec{
		{},                  // zero algo
		{Algo: 99},          // unknown algo
		{Algo: AlgoRabin},   // zero window/mask
		{Algo: AlgoFastCDC}, // zero sizes
		func() Spec { // rabin spec with fastcdc fields
			s := DefaultSpec()
			s.AvgSize = 4096
			return s
		}(),
		func() Spec { // fastcdc spec with rabin fields
			s := FastCDCSpec(4096)
			s.Window = 48
			return s
		}(),
		func() Spec { // avg not a power of two
			s := FastCDCSpec(4096)
			s.AvgSize = 4095
			return s
		}(),
		func() Spec { // min above avg
			s := FastCDCSpec(4096)
			s.MinSize = 8192
			return s
		}(),
		func() Spec { // normalization out of range
			s := FastCDCSpec(4096)
			s.Normalization = 4
			return s
		}(),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: spec %+v validated", i, s)
		}
	}
	var uae *UnknownAlgoError
	if err := (Spec{Algo: 99}).Validate(); !errors.As(err, &uae) || uae.Algo != 99 {
		t.Fatalf("unknown algo error = %v", err)
	}
}

func TestSpecWireRoundTrip(t *testing.T) {
	specs := []Spec{
		DefaultSpec(),
		FastCDCSpec(4 << 10),
		func() Spec {
			s := FastCDCSpec(64 << 10)
			s.Normalization = 3
			s.Seed = 0xdeadbeef
			return s
		}(),
		func() Spec {
			s := DefaultSpec()
			s.MinSize = 2 << 10
			s.MaxSize = 32 << 10
			s.MaskBits = 12
			s.Marker = 1<<12 - 1
			return s
		}(),
	}
	for i, s := range specs {
		enc := EncodeSpec(s)
		if len(enc) != specWireSize {
			t.Fatalf("case %d: encoded %d bytes, want %d", i, len(enc), specWireSize)
		}
		got, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got != s {
			t.Fatalf("case %d: round trip %+v != %+v", i, got, s)
		}
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	if _, err := DecodeSpec(nil); err == nil {
		t.Fatal("nil payload accepted")
	}
	if _, err := DecodeSpec(make([]byte, specWireSize-1)); err == nil {
		t.Fatal("short payload accepted")
	}
	enc := EncodeSpec(DefaultSpec())
	enc[0] = 77 // unknown algorithm id
	var uae *UnknownAlgoError
	if _, err := DecodeSpec(enc); !errors.As(err, &uae) {
		t.Fatalf("unknown algo id error = %v", err)
	}
}

func TestFactoryBuildsBothEngines(t *testing.T) {
	r, err := New(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*Rabin); !ok {
		t.Fatalf("DefaultSpec built %T", r)
	}
	f, err := New(FastCDCSpec(4 << 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*FastCDC); !ok {
		t.Fatalf("FastCDCSpec built %T", f)
	}
	if _, err := New(Spec{Algo: 42}); err == nil {
		t.Fatal("factory accepted unknown algo")
	}
}

// TestSpecFromSizes pins what the daemons' -chunker/-avg/-minchunk/
// -maxchunk flags mean: `-chunker rabin -avg 4` is the service default
// the golden vectors restate, FastCDC keeps its derived bounds unless
// told otherwise, and a size that is not a power of two is refused
// before it reaches an engine.
func TestSpecFromSizes(t *testing.T) {
	wide := FastCDCSpec(4 << 10)
	wide.MinSize, wide.MaxSize = 2<<10, 8<<10
	for _, tc := range []struct {
		algo          string
		avg, min, max int
		want          Spec
	}{
		{"rabin", 4 << 10, 0, 0, goldenServiceSpec()},
		{"fastcdc", 4 << 10, 0, 0, FastCDCSpec(4 << 10)},
		{"fastcdc", 4 << 10, 2 << 10, 8 << 10, wide},
	} {
		got, err := SpecFromSizes(tc.algo, tc.avg, tc.min, tc.max)
		if err != nil || got != tc.want {
			t.Errorf("SpecFromSizes(%q, %d, %d, %d) = %+v, %v; want %+v", tc.algo, tc.avg, tc.min, tc.max, got, err, tc.want)
		}
	}
	if _, err := SpecFromSizes("gear", 4<<10, 0, 0); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := SpecFromSizes("rabin", 3000, 0, 0); err == nil {
		t.Error("average size 3000 accepted")
	}
	if _, err := SpecFromSizes("fastcdc", 4<<10, 8<<10, 0); err == nil {
		t.Error("minimum above the average accepted")
	}
}
