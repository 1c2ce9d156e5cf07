package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"shredder/internal/dedup"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// diskShard is one stripe of the durable backing: an append-only set
// of container files plus a write-ahead log, both under
// <data>/shard-NNNN/. Appends stage chunk bytes in the run and their
// insert records in walBuf; a flush writes the run to the open
// container first, then the records to the WAL, so a WAL record never
// survives a crash that lost its bytes without recovery noticing (the
// record's range falls past the container's end and replay stops
// there). Compaction drops whole container files: the slot stays (nil
// in the slice, so later containers keep their numbers) and the WAL is
// checkpointed first, so no surviving record ever references a dropped
// file.
type diskShard struct {
	id            int
	dir           string
	containerSize int64
	always        bool // FsyncAlways: fsync at every Commit
	// grouped defers Commit's fsync to the backing's group-commit
	// syncer; the store waits on Backing.Barrier before acking a stream's
	// recipe commit instead.
	// Directory syncs (container rolls) still happen inline — the group
	// round only syncs file contents.
	grouped bool
	verify  bool // re-hash every chunk during Recover
	met     *pmetrics

	mu         sync.Mutex // guards all fields below
	span       *obs.Span  // active request span for I/O attribution
	wal        journal
	walBuf     []byte           // records staged since the last Commit
	containers []*containerFile // indexed by container number; nil = dropped
	// run is the open (last) container's staged tail: the chunk bytes
	// packed since the last flush, which belong at that container's size
	// onward. One flush writes it with one WriteAt, however many chunks a
	// batch appended.
	run       []byte
	recovered bool
}

// containerFile is one append-only container on disk.
type containerFile struct {
	f     *os.File
	size  int64 // bytes written to the file; the open container's run follows
	dirty bool  // has writes not yet fsynced
}

const (
	walName         = "wal"
	containerFormat = "c-%06d.dat"
)

func newDiskShard(dir string, id int, containerSize int64, always, grouped, verify bool, met *pmetrics) *diskShard {
	return &diskShard{
		id:            id,
		dir:           filepath.Join(dir, fmt.Sprintf("shard-%04d", id)),
		containerSize: containerSize,
		always:        always,
		grouped:       grouped,
		verify:        verify,
		met:           met,
	}
}

// Recover opens the shard's files and replays the WAL against them:
// inserts and relocations are validated against the container bytes
// actually on disk, a torn or inconsistent tail is cut off (WAL
// truncated to the last clean record, containers truncated to the last
// journaled byte), and fn is called once per surviving index entry.
func (s *diskShard) Recover(fn func(h shardstore.Hash, ref shardstore.Ref, refcount int64) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.met.addRecoverSince(time.Now())
	if s.recovered {
		return fmt.Errorf("persist: shard %d recovered twice", s.id)
	}
	s.recovered = true
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	if err := s.openContainers(); err != nil {
		return err
	}

	// index is transient: replay folds the journal into it, fn receives
	// the survivors, and the shard keeps no per-fingerprint state after.
	type entry struct {
		ref  shardstore.Ref
		refs int64
	}
	index := make(map[shardstore.Hash]entry)
	// watermarks[i] is the highest journaled byte of container i; bytes
	// past it were written but never made it into the surviving WAL
	// prefix, so they are cut off below.
	watermarks := make([]int64, len(s.containers))
	// validate checks a journaled location against the bytes on disk.
	// A reference to a hole in the container numbering is fail-stop,
	// not a torn tail: a checkpointed WAL never references a dropped
	// slot, so a nil slot below the highest container on disk means a
	// container file was lost externally — truncating the WAL there
	// would silently discard every later record and shrink intact
	// containers to match. Refuse to open instead.
	var lostContainer error
	var scratch []byte // grow-only, reused by every re-hash under verify
	validate := func(h shardstore.Hash, ci int, off, length int64) bool {
		if ci >= 0 && ci < len(s.containers) && s.containers[ci] == nil {
			lostContainer = fmt.Errorf("persist: shard %d WAL references container %d, whose file is missing", s.id, ci)
			return false
		}
		if ci < 0 || ci >= len(s.containers) ||
			off < 0 || length < 0 || off+length > s.containers[ci].size {
			return false
		}
		if s.verify {
			// Re-hash the chunk: catches bytes the filesystem lost in
			// ways the size check cannot see (zero-filled pages after
			// power loss under relaxed fsync).
			if int64(cap(scratch)) < length {
				scratch = make([]byte, length)
			}
			buf := scratch[:length]
			if _, rerr := s.containers[ci].f.ReadAt(buf, off); rerr != nil {
				return false
			}
			if dedup.Sum(buf) != h {
				return false
			}
		}
		return true
	}
	var err error
	s.wal, err = openJournal(filepath.Join(s.dir, walName), func(body []byte) error {
		if len(body) == 0 {
			return errTornRecord
		}
		switch body[0] {
		case recInsert:
			h, ci, off, length, derr := decodeLocated(body)
			if derr != nil {
				return errTornRecord
			}
			if !validate(h, ci, off, length) {
				if lostContainer != nil {
					return lostContainer
				}
				// The record refers to bytes that never reached the
				// container file: the tail of history is lost.
				return errTornRecord
			}
			if _, dup := index[h]; dup {
				return errTornRecord
			}
			index[h] = entry{shardstore.Ref{Shard: s.id, Container: ci, Offset: off, Length: length}, 1}
			if off+length > watermarks[ci] {
				watermarks[ci] = off + length
			}
		case recRefDelta:
			h, delta, derr := decodeRefDelta(body)
			if derr != nil {
				return errTornRecord
			}
			e, ok := index[h]
			if !ok {
				return errTornRecord
			}
			if e.refs += delta; e.refs < 1 {
				// A delete released the entry; the bytes stay until
				// compaction reclaims them.
				delete(index, h)
			} else {
				index[h] = e
			}
		case recRelocate:
			h, ci, off, length, derr := decodeLocated(body)
			if derr != nil {
				return errTornRecord
			}
			e, ok := index[h]
			if !ok || e.ref.Length != length {
				return errTornRecord
			}
			if !validate(h, ci, off, length) {
				if lostContainer != nil {
					return lostContainer
				}
				// The moved copy never reached disk: the move (and
				// everything after it) is lost; the entry keeps its old
				// location, whose container still exists — unlink only
				// happens after a checkpoint that survives replay.
				return errTornRecord
			}
			index[h] = entry{shardstore.Ref{Shard: s.id, Container: ci, Offset: off, Length: length}, e.refs}
			if off+length > watermarks[ci] {
				watermarks[ci] = off + length
			}
		default:
			return errTornRecord
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, cf := range s.containers {
		if cf != nil && cf.size > watermarks[i] {
			if err := cf.f.Truncate(watermarks[i]); err != nil {
				return err
			}
			cf.size = watermarks[i]
		}
	}
	for h, e := range index {
		if err := fn(h, e.ref, e.refs); err != nil {
			return err
		}
	}
	return nil
}

// SetSpan installs (or, with nil, clears) the span the shard's journal
// writes and fsyncs should attach to — shardstore's spanSink hook. The
// store calls it under the stripe lock that serializes this shard's
// mutations, bracketing exactly one request's backing calls.
func (s *diskShard) SetSpan(sp *obs.Span) {
	s.mu.Lock()
	s.span = sp
	s.mu.Unlock()
}

// openContainers opens every existing container file by its number.
// The sequence may have holes where compaction dropped containers;
// dropped slots stay nil so surviving containers keep their numbers.
func (s *diskShard) openContainers() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	nums := make(map[int]string)
	max := -1
	for _, e := range entries {
		var n int
		if !e.IsDir() {
			if _, err := fmt.Sscanf(e.Name(), containerFormat, &n); err == nil {
				if want := fmt.Sprintf(containerFormat, n); e.Name() == want {
					nums[n] = e.Name()
					if n > max {
						max = n
					}
				}
			}
		}
	}
	s.containers = make([]*containerFile, max+1)
	for n, name := range nums {
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return err
		}
		s.containers[n] = &containerFile{f: f, size: st.Size()}
	}
	return nil
}

// pack stages data at the end of the open container (rolling when
// full) and returns where it will land; the caller stages the matching
// WAL record. A run never spans containers: a roll writes the old
// container's run out first.
func (s *diskShard) pack(data []byte) (int, int64, error) {
	cur := len(s.containers) - 1
	if cur < 0 || s.containers[cur].size+int64(len(s.run)+len(data)) > s.containerSize {
		if err := s.writeRunLocked(); err != nil {
			return 0, 0, err
		}
		f, err := os.OpenFile(
			filepath.Join(s.dir, fmt.Sprintf(containerFormat, len(s.containers))),
			os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
		if err != nil {
			return 0, 0, err
		}
		if s.always {
			if err := syncDir(s.dir); err != nil {
				_ = f.Close()
				return 0, 0, err
			}
		}
		s.containers = append(s.containers, &containerFile{f: f})
		cur = len(s.containers) - 1
	}
	off := s.containers[cur].size + int64(len(s.run))
	s.run = append(s.run, data...)
	return cur, off, nil
}

// writeRunLocked writes the staged run to the open container with one
// WriteAt.
func (s *diskShard) writeRunLocked() error {
	if len(s.run) == 0 {
		return nil
	}
	cf := s.containers[len(s.containers)-1]
	if _, err := cf.f.WriteAt(s.run, cf.size); err != nil {
		// cf.size is not advanced and the run stays staged: the partial
		// bytes sit past the watermark, invisible to recovery, and the
		// next flush rewrites the region.
		return err
	}
	cf.size += int64(len(s.run))
	cf.dirty = true
	s.met.containerWrites.Add(1)
	s.met.containerWriteBytes.Add(int64(len(s.run)))
	s.run = s.run[:0]
	return nil
}

// stage packs data at the end of the open container and stages the
// record that names it there: typ is recInsert for a new chunk and
// recRelocate for a compaction move. Bytes and record are written at the
// next Commit — bytes first — and become durable there under the shard's
// fsync policy.
func (s *diskShard) stage(typ byte, h shardstore.Hash, data []byte) (int, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ci, off, err := s.pack(data)
	if err != nil {
		return 0, 0, err
	}
	s.walBuf = appendRecord(s.walBuf, encodeLocated(typ, h, ci, off, int64(len(data))))
	s.met.walRecords.Add(1)
	return ci, off, nil
}

// Append stages a new chunk's bytes and its insert record.
func (s *diskShard) Append(h shardstore.Hash, data []byte) (int, int64, error) {
	return s.stage(recInsert, h, data)
}

// Relocate re-packs a surviving chunk's bytes during compaction and
// stages the relocation record: the entry keeps its fingerprint and
// reference count, only its location changes.
func (s *diskShard) Relocate(h shardstore.Hash, data []byte) (int, int64, error) {
	return s.stage(recRelocate, h, data)
}

// LogRefDelta stages a refcount-change record.
func (s *diskShard) LogRefDelta(h shardstore.Hash, delta int64) error {
	s.mu.Lock()
	s.walBuf = appendRecord(s.walBuf, encodeRefDelta(h, delta))
	s.mu.Unlock()
	s.met.walRecords.Add(1)
	return nil
}

// Commit writes the staged run and then the staged WAL records through
// to the kernel — one container write and one WAL write per batch — and,
// under FsyncAlways, fsyncs the dirty container files and the WAL (data
// before journal both times, so a record on disk always has its bytes). Under group
// commit the fsync is deferred to the backing's shared syncer round,
// which the store waits for (Backing.Barrier) at the stream's recipe
// commit, before the ack.
func (s *diskShard) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	if s.always && !s.grouped {
		return s.fsyncLocked()
	}
	return nil
}

// flushLocked writes the staged run to the open container, then the
// staged records to the WAL file: the order is what keeps an insert
// record from reaching the journal ahead of the bytes it names. A
// failed container write leaves both staged, and the journal unwritten.
func (s *diskShard) flushLocked() error {
	if err := s.met.syncFailed(); err != nil {
		return err
	}
	if err := s.writeRunLocked(); err != nil {
		return err
	}
	if len(s.walBuf) == 0 {
		return nil
	}
	if s.span != nil {
		defer s.span.Child("wal_append",
			obs.Int("shard", int64(s.id)), obs.Int("bytes", int64(len(s.walBuf)))).End()
	}
	if err := s.wal.append(s.walBuf); err != nil {
		return err
	}
	s.met.flushedBytes.Add(int64(len(s.walBuf)))
	s.walBuf = s.walBuf[:0]
	return nil
}

// fsyncLocked syncs every dirty file, containers first.
func (s *diskShard) fsyncLocked() error {
	for _, cf := range s.containers {
		if cf != nil && cf.dirty {
			if err := s.met.timedSync(cf.f, s.span); err != nil {
				return err
			}
			cf.dirty = false
		}
	}
	return s.wal.sync(s.met, s.span)
}

// sync flushes and fsyncs everything (the interval ticker, Sync and
// Close path).
func (s *diskShard) sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.fsyncLocked()
}

// Checkpoint is the compaction commit point. In order: (1) every
// staged record — the relocations — and every dirty container is
// fsynced, so the moved copies are durable under the OLD journal; (2)
// a fresh journal describing exactly the live entries is written to a
// temp file, fsynced, and atomically renamed over the WAL; (3) only
// then are the victim container files unlinked. A crash before the
// rename recovers from the old WAL with every container still on disk;
// a crash after it recovers from the new WAL, which references none of
// the dropped containers. There is no reachable state in between.
func (s *diskShard) Checkpoint(live []shardstore.CheckpointEntry, drop []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := s.fsyncLocked(); err != nil {
		return err
	}
	var buf []byte
	for _, e := range live {
		buf = appendRecord(buf, encodeLocated(recInsert, e.Hash, e.Ref.Container, e.Ref.Offset, e.Ref.Length))
		if e.Refcount > 1 {
			buf = appendRecord(buf, encodeRefDelta(e.Hash, e.Refcount-1))
		}
	}
	if err := s.wal.rewrite(buf); err != nil {
		return err
	}
	s.met.checkpoints.Add(1)
	for _, ci := range drop {
		if ci < 0 || ci >= len(s.containers)-1 || s.containers[ci] == nil {
			continue
		}
		if err := s.containers[ci].f.Close(); err != nil {
			return err
		}
		if err := os.Remove(filepath.Join(s.dir, fmt.Sprintf(containerFormat, ci))); err != nil {
			return err
		}
		s.containers[ci] = nil
	}
	return syncDir(s.dir)
}

// Read returns the bytes at a stored location: via positional read, or
// out of the run when the location is staged and not yet written.
func (s *diskShard) Read(container int, offset, length int64) ([]byte, error) {
	s.mu.Lock()
	if container < 0 || container >= len(s.containers) || s.containers[container] == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("persist: shard %d container %d out of range", s.id, container)
	}
	cf := s.containers[container]
	if offset < 0 || length < 0 || offset+length > s.lenLocked(container) {
		s.mu.Unlock()
		return nil, fmt.Errorf("persist: shard %d range [%d, %d) outside container %d", s.id, offset, offset+length, container)
	}
	if offset >= cf.size && length > 0 {
		// Chunks are staged and written whole, so one past the written
		// size lies entirely in the run.
		buf := append([]byte(nil), s.run[offset-cf.size:offset-cf.size+length]...)
		s.mu.Unlock()
		return buf, nil
	}
	s.mu.Unlock()
	buf := make([]byte, length)
	if _, err := cf.f.ReadAt(buf, offset); err != nil {
		return nil, err
	}
	return buf, nil
}

// Containers reports how many container slots the shard has opened
// (including slots dropped by compaction, so numbers stay stable).
func (s *diskShard) Containers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.containers)
}

// ContainerLen reports how many bytes container i holds — written or,
// for the open container, still staged — and -1 for a slot compaction
// dropped.
func (s *diskShard) ContainerLen(i int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.containers) || s.containers[i] == nil {
		return -1
	}
	return s.lenLocked(i)
}

// lenLocked is container i's size counting the staged run.
func (s *diskShard) lenLocked(i int) int64 {
	n := s.containers[i].size
	if i == len(s.containers)-1 {
		n += int64(len(s.run))
	}
	return n
}

// close syncs and releases the shard's files.
func (s *diskShard) close() error {
	err := s.sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cf := range s.containers {
		if cf == nil {
			continue
		}
		if cerr := cf.f.Close(); err == nil {
			err = cerr
		}
	}
	s.containers, s.run = nil, nil
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}

var _ shardstore.ShardBacking = (*diskShard)(nil)

// errClosed reports use after Close.
var errClosed = errors.New("persist: backing is closed")
