package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"shredder/internal/shardstore"
)

// The write-ahead log is a flat sequence of framed records:
//
//	u32 body length | u32 CRC-32C of body | body
//
// (big-endian). The body's first byte is the record type, the rest is
// the type-specific payload. Integers inside payloads are varints.
// The framing is what makes replay safe: a crash can tear the final
// record (short header, short body, or a CRC that does not match the
// bytes that made it to disk), and the scanner detects all three,
// keeps the clean prefix, and reports where it ends so the file can be
// truncated back to a record boundary.

// Record types.
const (
	// recInsert journals one index insert in a shard WAL: a chunk
	// fingerprint and the container location its bytes were packed at.
	recInsert byte = iota + 1
	// recRefDelta journals a reference-count change for an existing
	// entry: +1 per duplicate hit or pin, -1 per recipe-delete
	// release. Replay drops an entry whose count reaches zero.
	recRefDelta
	// recRecipe journals one named stream recipe in the store-level
	// recipe log.
	recRecipe
	// recRelocate journals a compaction move in a shard WAL: an
	// existing entry's bytes were re-packed at a new container
	// location. Replay re-points the entry; the refcount is untouched.
	recRelocate
	// recRecipeDelete journals a recipe tombstone in the store-level
	// recipe log: replay removes the name.
	recRecipeDelete
)

// recHeaderSize frames every record: u32 body length + u32 CRC-32C.
const recHeaderSize = 8

// maxRecordSize bounds a single record body. The largest legitimate
// record is a recipe for a huge stream; 64 MiB of refs is ~2M chunks
// per stream, far beyond anything the ingest layer produces.
const maxRecordSize = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTornRecord marks the clean end of a WAL: the bytes past this
// point are an incomplete or corrupt final record, not usable state.
var errTornRecord = errors.New("persist: torn WAL record")

// appendRecord frames body onto dst.
func appendRecord(dst, body []byte) []byte {
	var hdr [recHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(body, crcTable))
	return append(append(dst, hdr[:]...), body...)
}

// readRecord decodes the record at the front of p, returning its body
// and total framed size. It returns errTornRecord when p holds only a
// prefix of a record or the CRC does not match.
func readRecord(p []byte) (body []byte, size int, err error) {
	if len(p) < recHeaderSize {
		return nil, 0, errTornRecord
	}
	n := binary.BigEndian.Uint32(p[0:4])
	if n > maxRecordSize {
		return nil, 0, errTornRecord
	}
	size = recHeaderSize + int(n)
	if len(p) < size {
		return nil, 0, errTornRecord
	}
	body = p[recHeaderSize:size]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(p[4:8]) {
		return nil, 0, errTornRecord
	}
	return body, size, nil
}

// scanRecords walks every intact record in p in order, calling fn with
// each body. It returns the length of the clean prefix: the offset the
// file should be truncated to if anything past it is torn. fn may
// reject a record (replay found it inconsistent with the containers on
// disk); scanning stops there and the record is excluded from the
// prefix, exactly as if it were torn.
func scanRecords(p []byte, fn func(body []byte) error) (clean int, err error) {
	off := 0
	for off < len(p) {
		body, size, rerr := readRecord(p[off:])
		if rerr != nil {
			return off, nil
		}
		if ferr := fn(body); ferr != nil {
			if errors.Is(ferr, errTornRecord) {
				return off, nil
			}
			return off, ferr
		}
		off += size
	}
	return off, nil
}

// --- typed payloads ---

// encodeLocated frames the payload recInsert and recRelocate share: a
// fingerprint plus the container location its bytes live at — stored
// there (insert) or moved there by compaction (relocate). The shard is
// implied by which shard's WAL holds the record.
func encodeLocated(typ byte, h shardstore.Hash, container int, offset, length int64) []byte {
	body := make([]byte, 0, 1+len(h)+3*binary.MaxVarintLen64)
	body = append(body, typ)
	body = append(body, h[:]...)
	body = binary.AppendUvarint(body, uint64(container))
	body = binary.AppendUvarint(body, uint64(offset))
	body = binary.AppendUvarint(body, uint64(length))
	return body
}

func decodeLocated(body []byte) (h shardstore.Hash, container int, offset, length int64, err error) {
	p := body[1:]
	if len(p) < len(h) {
		return h, 0, 0, 0, fmt.Errorf("persist: located record body %d bytes, need %d", len(body), 1+len(h))
	}
	copy(h[:], p)
	p = p[len(h):]
	var u [3]uint64
	for i := range u {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return h, 0, 0, 0, errors.New("persist: located record truncated varint")
		}
		u[i] = v
		p = p[n:]
	}
	if len(p) != 0 {
		return h, 0, 0, 0, errors.New("persist: located record trailing bytes")
	}
	return h, int(u[0]), int64(u[1]), int64(u[2]), nil
}

// encodeRefDelta journals a refcount change for h.
func encodeRefDelta(h shardstore.Hash, delta int64) []byte {
	body := make([]byte, 0, 1+len(h)+binary.MaxVarintLen64)
	body = append(body, recRefDelta)
	body = append(body, h[:]...)
	body = binary.AppendVarint(body, delta)
	return body
}

func decodeRefDelta(body []byte) (h shardstore.Hash, delta int64, err error) {
	p := body[1:]
	if len(p) < len(h) {
		return h, 0, fmt.Errorf("persist: refdelta record body %d bytes, need %d", len(body), 1+len(h))
	}
	copy(h[:], p)
	p = p[len(h):]
	v, n := binary.Varint(p)
	if n <= 0 || len(p) != n {
		return h, 0, errors.New("persist: refdelta record malformed varint")
	}
	return h, v, nil
}

// hashLen is the fixed wire size of one fingerprint in a recipe body.
const hashLen = len(shardstore.Hash{})

// encodeRecipe journals one named recipe: name, entry count, then the
// fingerprints back to back. Recipes are content-addressed (hashes,
// not locations), so compaction never has to rewrite them.
func encodeRecipe(name string, r shardstore.Recipe) []byte {
	body := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(name)+len(r)*hashLen)
	body = append(body, recRecipe)
	body = binary.AppendUvarint(body, uint64(len(name)))
	body = append(body, name...)
	body = binary.AppendUvarint(body, uint64(len(r)))
	for i := range r {
		body = append(body, r[i][:]...)
	}
	return body
}

func decodeRecipe(body []byte) (string, shardstore.Recipe, error) {
	p := body[1:]
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, errors.New("persist: recipe record truncated varint")
		}
		p = p[n:]
		return v, nil
	}
	nameLen, err := uvarint()
	if err != nil {
		return "", nil, err
	}
	if nameLen > uint64(len(p)) {
		return "", nil, errors.New("persist: recipe record truncated name")
	}
	name := string(p[:nameLen])
	p = p[nameLen:]
	count, err := uvarint()
	if err != nil {
		return "", nil, err
	}
	// Bound before multiplying: a hostile count must not wrap the
	// product into agreement (or size a giant allocation).
	if count > uint64(len(p))/uint64(hashLen) || count*uint64(hashLen) != uint64(len(p)) {
		return "", nil, errors.New("persist: recipe record fingerprint count mismatch")
	}
	r := make(shardstore.Recipe, count)
	for i := range r {
		copy(r[i][:], p[uint64(i)*uint64(hashLen):])
	}
	return name, r, nil
}

// encodeRecipeDelete journals a recipe tombstone: the name alone.
func encodeRecipeDelete(name string) []byte {
	body := make([]byte, 0, 1+binary.MaxVarintLen64+len(name))
	body = append(body, recRecipeDelete)
	body = binary.AppendUvarint(body, uint64(len(name)))
	body = append(body, name...)
	return body
}

func decodeRecipeDelete(body []byte) (string, error) {
	p := body[1:]
	nameLen, n := binary.Uvarint(p)
	if n <= 0 {
		return "", errors.New("persist: recipe tombstone truncated varint")
	}
	p = p[n:]
	if nameLen != uint64(len(p)) {
		return "", errors.New("persist: recipe tombstone name length mismatch")
	}
	return string(p), nil
}
