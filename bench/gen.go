package main

import "encoding/binary"

// rng is splitmix64: a few arithmetic ops per 8 bytes, so filling a
// buffer runs at memory-ish speed and never allocates.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) fill(p []byte) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, r.next())
		p = p[8:]
	}
	if len(p) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(p, tail[:])
	}
}

// mix derives an independent 64-bit key from two.
func mix(a, b uint64) uint64 {
	r := rng{s: a ^ (b+1)*0xd6e8feb86659fd93}
	return r.next()
}

// source produces a workload's streams by index. load makes stream i
// current in the source's single reused buffer and returns it; the
// slice is valid until the next load. The same (seed, i) always yields
// the same bytes, which is how restores and the post-reopen check get
// their expected content without keeping every stream in memory.
type source interface {
	load(i int) []byte
}

// stampEvery is the spacing of the per-stream stamps in a unique
// stream: below every engine's minimum chunk size, so every chunk of
// every stream carries at least eight stream-specific bytes and none
// deduplicates against another stream.
const (
	stampEvery = 1 << 10
	stampBytes = 8
)

// uniqueSource yields streams that share no chunk: one random base
// buffer, re-stamped in place per stream (no copy, no allocation).
type uniqueSource struct {
	seed uint64
	buf  []byte
}

func newUniqueSource(seed uint64, size int) *uniqueSource {
	u := &uniqueSource{seed: seed, buf: make([]byte, size)}
	r := rng{s: mix(seed, uint64(size))}
	r.fill(u.buf)
	return u
}

func (u *uniqueSource) load(i int) []byte {
	key := mix(u.seed, uint64(i))
	b := u.buf
	for off := 0; off+stampBytes <= len(b); off += stampEvery {
		binary.LittleEndian.PutUint64(b[off:], mix(key, uint64(off)))
	}
	if len(b) >= stampBytes {
		// A short final chunk may start past the last regular stamp. One
		// shorter than this stamp can still repeat across streams: the
		// ingest check allows for exactly that.
		binary.LittleEndian.PutUint64(b[len(b)-stampBytes:], mix(key, ^uint64(0)))
	}
	return b
}

// snapshotSource yields a chain of images: stream 0 is a random golden
// image, stream g is stream g-1 with a tenth of its segments (drawn
// with replacement) regenerated. Loading forwards is one mutation per
// step; loading backwards rebuilds the golden image and replays.
type snapshotSource struct {
	seed uint64
	buf  []byte
	gen  int // generation currently in buf, -1 before the first load
}

const snapshotSegment = 64 << 10

func newSnapshotSource(seed uint64, size int) *snapshotSource {
	return &snapshotSource{seed: seed, buf: make([]byte, size), gen: -1}
}

func (s *snapshotSource) load(i int) []byte {
	if s.gen < 0 || i < s.gen {
		r := rng{s: mix(s.seed, 0)}
		r.fill(s.buf)
		s.gen = 0
	}
	for s.gen < i {
		s.gen++
		r := rng{s: mix(s.seed, uint64(s.gen))}
		segs := uint64(len(s.buf) / snapshotSegment)
		for k := uint64(0); k < segs/10; k++ {
			at := (r.next() % segs) * snapshotSegment
			r.fill(s.buf[at : at+snapshotSegment])
		}
	}
	return s.buf
}
