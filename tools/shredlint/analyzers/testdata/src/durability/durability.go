// Positive suite for the durability analyzer: a persistence package
// (marked by declaring FsyncMode) with an unsynced commit point and
// apply-before-journal refcount orderings.
package persist

import "os"

type FsyncMode int

type ref struct{ h string }

type store struct {
	f      *os.File
	wal    *os.File
	jnl    journal
	walBuf []byte
	run    []byte
}

type journal struct{ f *os.File }

func (j *journal) append(recs []byte) error {
	_, err := j.f.WriteAt(recs, 0)
	return err
}

// Commit flushes but never syncs: an acked commit can still be lost.
func (s *store) Commit() error { // want `commit point Commit never reaches a file Sync`
	return s.flush()
}

func (s *store) flush() error { return nil }

// Checkpoint reaches Sync through a helper, so it is not flagged.
func (s *store) Checkpoint() error {
	if err := s.flush(); err != nil {
		return err
	}
	return s.fsyncLocked()
}

func (s *store) fsyncLocked() error { return s.f.Sync() }

// DeleteRecipe journals the tombstone and syncs before returning.
func (s *store) DeleteRecipe(name string) error {
	if err := s.appendTombstone(name); err != nil {
		return err
	}
	return s.fsyncLocked()
}

func (s *store) appendTombstone(name string) error { return nil }

// removeRecipe decrements refcounts before the tombstone is journaled:
// a crash in between loses chunks that the recipe still referenced.
func (s *store) removeRecipe(name string, refs []ref) error {
	s.releaseRefs(refs) // want `releaseRefs applies a refcount change before DeleteRecipe journals it`
	return s.DeleteRecipe(name)
}

// releaseRefs applies each decrement before logging its delta.
func (s *store) releaseRefs(refs []ref) {
	for _, r := range refs {
		s.applyDelta(r) // want `applyDelta applies a refcount change before LogRefDelta journals it`
	}
	for _, r := range refs {
		s.LogRefDelta(r.h, -1)
	}
}

func (s *store) applyDelta(r ref)            {}
func (s *store) LogRefDelta(h string, d int) {}

// flushJournalFirst writes the insert records ahead of the chunk bytes
// they name: a crash between the two leaves a journal recovery trusts
// over a container that never got the data.
func (s *store) flushJournalFirst() error {
	if _, err := s.wal.WriteAt(s.walBuf, 0); err != nil { // want `flushJournalFirst writes the WAL buffer before the staged container run is flushed`
		return err
	}
	return s.writeRunLocked()
}

// flushThroughJournal does the same through the journal type: staging a
// record with the builtin append is not the write, handing the buffer to
// the journal is.
func (s *store) flushThroughJournal(rec []byte) error {
	s.walBuf = append(s.walBuf, rec...)
	if err := s.jnl.append(s.walBuf); err != nil { // want `flushThroughJournal writes the WAL buffer before the staged container run is flushed`
		return err
	}
	return s.writeRunLocked()
}

// flushJournalOnly never writes the run at all.
func (s *store) flushJournalOnly() error {
	_, err := s.wal.WriteAt(s.walBuf, 0) // want `flushJournalOnly writes the WAL buffer before the staged container run is flushed`
	return err
}

func (s *store) writeRunLocked() error {
	_, err := s.f.WriteAt(s.run, 0)
	return err
}
