package persist

import (
	"bytes"
	"testing"

	"shredder/internal/shardstore"
)

// walSeedCorpus is the checked-in seed corpus for the WAL codec fuzz
// targets: one representative of every record type, edge sizes, and a
// few deliberately hostile framings. CI runs these as ordinary seed
// cases via `go test`; `go test -fuzz FuzzWALRecord ./internal/persist/`
// explores beyond them.
func walSeedCorpus() [][]byte {
	h := testHash(3)
	return [][]byte{
		nil,
		{},
		{recInsert},
		{recRefDelta},
		{recRecipe},
		{recRelocate},
		{recRecipeDelete},
		{0xff, 0x00},
		encodeLocated(recInsert, h, 0, 0, 0),
		encodeLocated(recInsert, h, 1<<20, 1<<40, 32<<10),
		encodeRefDelta(h, 1),
		encodeRefDelta(h, -1), // the delete path's release
		encodeRefDelta(h, -(1 << 50)),
		encodeLocated(recRelocate, h, 0, 0, 0),
		encodeLocated(recRelocate, h, 7, 1<<30, 4096),
		encodeRecipe("vm-master", shardstore.Recipe{testHash(1), testHash(2)}),
		encodeRecipe("", nil),
		encodeRecipeDelete("vm-master"),
		encodeRecipeDelete(""),
		appendRecord(nil, encodeRefDelta(h, 1)),                          // a framed record as raw input
		appendRecord(nil, encodeLocated(recRelocate, h, 1, 2, 3)),        // framed relocate
		appendRecord(appendRecord(nil, []byte{recInsert}), []byte{0xab}), // two frames
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},                             // 4 GiB length claim
		bytes.Repeat([]byte{0x00}, recHeaderSize),                        // empty body, zero CRC
		append(bytes.Repeat([]byte{0x00}, 4), 0xde, 0xad, 0xbe, 0xef),    // empty body, wrong CRC
	}
}

// FuzzWALRecord is the encoder/decoder round-trip target. The input is
// interpreted two ways on every run:
//
//  1. As a record body: framing it with appendRecord and reading it
//     back must return the identical body and consume exactly the
//     framed bytes, and scanning a buffer of two copies must yield
//     both.
//  2. As raw WAL bytes: readRecord and the typed payload decoders must
//     never panic, and whatever readRecord accepts must re-encode to
//     the identical framed bytes (the framing is canonical).
func FuzzWALRecord(f *testing.F) {
	for _, seed := range walSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		// (1) round-trip as a body.
		if len(in) <= maxRecordSize {
			rec := appendRecord(nil, in)
			body, size, err := readRecord(rec)
			if err != nil {
				t.Fatalf("framed record did not read back: %v", err)
			}
			if size != len(rec) || !bytes.Equal(body, in) {
				t.Fatalf("round-trip mangled body: size %d/%d", size, len(rec))
			}
			double := append(append([]byte(nil), rec...), rec...)
			n := 0
			clean, serr := scanRecords(double, func(b []byte) error {
				if !bytes.Equal(b, in) {
					t.Fatal("scan yielded a different body")
				}
				n++
				return nil
			})
			if serr != nil || n != 2 || clean != len(double) {
				t.Fatalf("scan of two copies: n=%d clean=%d err=%v", n, clean, serr)
			}
		}

		// (2) decode arbitrary bytes: no panics, canonical re-encode.
		if body, size, err := readRecord(in); err == nil {
			if !bytes.Equal(appendRecord(nil, body), in[:size]) {
				t.Fatal("accepted framing is not canonical")
			}
		}
		if len(in) > 0 {
			switch in[0] {
			case recInsert:
				if h, ci, off, length, err := decodeLocated(in); err == nil {
					if !bytes.Equal(encodeLocated(recInsert, h, ci, off, length), in) {
						t.Skip("non-canonical varint encoding") // decodable but not what we emit
					}
				}
			case recRefDelta:
				if h, delta, err := decodeRefDelta(in); err == nil {
					if !bytes.Equal(encodeRefDelta(h, delta), in) {
						t.Skip("non-canonical varint encoding")
					}
				}
			case recRelocate:
				if h, ci, off, length, err := decodeLocated(in); err == nil {
					if !bytes.Equal(encodeLocated(recRelocate, h, ci, off, length), in) {
						t.Skip("non-canonical varint encoding")
					}
				}
			case recRecipe:
				if name, r, err := decodeRecipe(in); err == nil {
					if !bytes.Equal(encodeRecipe(name, r), in) {
						t.Skip("non-canonical varint encoding")
					}
				}
			case recRecipeDelete:
				if name, err := decodeRecipeDelete(in); err == nil {
					if !bytes.Equal(encodeRecipeDelete(name), in) {
						t.Skip("non-canonical varint encoding")
					}
				}
			}
		}
	})
}
