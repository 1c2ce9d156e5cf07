package persist

import (
	"bytes"
	"testing"

	"shredder/internal/dedup"
	"shredder/internal/shardstore"
)

// testHash builds a deterministic distinct fingerprint.
func testHash(seed byte) shardstore.Hash {
	return dedup.Sum([]byte{seed})
}

// TestRecordFraming round-trips bodies through the framing and walks a
// multi-record buffer.
func TestRecordFraming(t *testing.T) {
	bodies := [][]byte{
		{recInsert, 1, 2, 3},
		{},
		bytes.Repeat([]byte{0xab}, 1000),
	}
	var buf []byte
	for _, b := range bodies {
		buf = appendRecord(buf, b)
	}
	for i, want := range bodies {
		body, size, err := readRecord(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("record %d: body %x, want %x", i, body, want)
		}
		buf = buf[size:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d bytes left over", len(buf))
	}
}

// TestRecordTornDetection covers every way the final record can tear:
// short header, short body, flipped body bit, flipped CRC bit.
func TestRecordTornDetection(t *testing.T) {
	body := encodeLocated(recInsert, testHash(1), 0, 0, 512)
	rec := appendRecord(nil, body)
	for cut := 0; cut < len(rec); cut++ {
		if _, _, err := readRecord(rec[:cut]); err != errTornRecord {
			t.Fatalf("cut at %d: err = %v, want errTornRecord", cut, err)
		}
	}
	for flip := 0; flip < len(rec); flip++ {
		bad := append([]byte(nil), rec...)
		bad[flip] ^= 0x01
		if _, _, err := readRecord(bad); err == nil {
			// Flipping a length byte can still parse if the buffer ends
			// exactly at the (smaller) length — but then the CRC fails.
			t.Fatalf("bit flip at %d went undetected", flip)
		}
	}
}

// TestScanRecordsPrefix checks the scanner hands back the clean-prefix
// boundary for a torn tail.
func TestScanRecordsPrefix(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, encodeRefDelta(testHash(1), 1))
	first := len(buf)
	buf = appendRecord(buf, encodeRefDelta(testHash(2), 1))
	whole := len(buf)
	buf = append(buf, 0xde, 0xad) // torn tail

	var n int
	clean, err := scanRecords(buf, func([]byte) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || clean != whole {
		t.Fatalf("scanned %d records, clean=%d; want 2 records, clean=%d", n, clean, whole)
	}

	// A replay rejection mid-scan excludes the record from the prefix.
	n = 0
	clean, err = scanRecords(buf[:whole], func([]byte) error {
		n++
		if n == 2 {
			return errTornRecord
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clean != first {
		t.Fatalf("rejected record kept: clean=%d, want %d", clean, first)
	}
}

// TestInsertRoundTrip pins the typed insert codec.
func TestInsertRoundTrip(t *testing.T) {
	h := testHash(9)
	body := encodeLocated(recInsert, h, 3, 123456, 4096)
	gh, ci, off, length, err := decodeLocated(body)
	if err != nil {
		t.Fatal(err)
	}
	if gh != h || ci != 3 || off != 123456 || length != 4096 {
		t.Fatalf("got (%x, %d, %d, %d)", gh[:4], ci, off, length)
	}
	for cut := 1; cut < len(body); cut++ {
		if _, _, _, _, err := decodeLocated(body[:cut]); err == nil {
			t.Fatalf("truncated insert body at %d decoded", cut)
		}
	}
}

// TestRefDeltaRoundTrip pins the typed refcount-delta codec, including
// negative deltas (future GC decrements).
func TestRefDeltaRoundTrip(t *testing.T) {
	for _, delta := range []int64{1, -1, 1 << 40, -(1 << 40)} {
		h := testHash(7)
		gh, gd, err := decodeRefDelta(encodeRefDelta(h, delta))
		if err != nil {
			t.Fatal(err)
		}
		if gh != h || gd != delta {
			t.Fatalf("delta %d: got (%x, %d)", delta, gh[:4], gd)
		}
	}
}

// TestRecipeRoundTrip pins the content-addressed recipe codec.
func TestRecipeRoundTrip(t *testing.T) {
	r := shardstore.Recipe{testHash(1), testHash(2), testHash(1)}
	for _, name := range []string{"", "vm-master", "名前"} {
		body := encodeRecipe(name, r)
		gn, gr, err := decodeRecipe(body)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if gn != name || len(gr) != len(r) {
			t.Fatalf("%q: got %q with %d entries", name, gn, len(gr))
		}
		for i := range r {
			if gr[i] != r[i] {
				t.Fatalf("%q entry %d: %x != %x", name, i, gr[i][:4], r[i][:4])
			}
		}
	}
	// Empty recipes survive too (a zero-byte stream has no entries).
	if _, gr, err := decodeRecipe(encodeRecipe("empty", nil)); err != nil || len(gr) != 0 {
		t.Fatalf("empty recipe: %v, %d entries", err, len(gr))
	}
	// A count that disagrees with the payload size is rejected.
	bad := encodeRecipe("x", r)
	if _, _, err := decodeRecipe(bad[:len(bad)-1]); err == nil {
		t.Fatal("short recipe body accepted")
	}
}

// TestRelocateRoundTrip pins the compaction-move codec.
func TestRelocateRoundTrip(t *testing.T) {
	h := testHash(5)
	body := encodeLocated(recRelocate, h, 4, 98765, 2048)
	if body[0] != recRelocate {
		t.Fatalf("record type %d", body[0])
	}
	gh, ci, off, length, err := decodeLocated(body)
	if err != nil {
		t.Fatal(err)
	}
	if gh != h || ci != 4 || off != 98765 || length != 2048 {
		t.Fatalf("got (%x, %d, %d, %d)", gh[:4], ci, off, length)
	}
	for cut := 1; cut < len(body); cut++ {
		if _, _, _, _, err := decodeLocated(body[:cut]); err == nil {
			t.Fatalf("truncated relocate body at %d decoded", cut)
		}
	}
}

// TestRecipeDeleteRoundTrip pins the tombstone codec.
func TestRecipeDeleteRoundTrip(t *testing.T) {
	for _, name := range []string{"", "vm-snapshot-3", "名前"} {
		body := encodeRecipeDelete(name)
		if body[0] != recRecipeDelete {
			t.Fatalf("record type %d", body[0])
		}
		gn, err := decodeRecipeDelete(body)
		if err != nil || gn != name {
			t.Fatalf("%q: got %q, %v", name, gn, err)
		}
	}
	body := encodeRecipeDelete("vm")
	if _, err := decodeRecipeDelete(body[:len(body)-1]); err == nil {
		t.Fatal("short tombstone accepted")
	}
	if _, err := decodeRecipeDelete(append(body, 'x')); err == nil {
		t.Fatal("oversized tombstone accepted")
	}
}
