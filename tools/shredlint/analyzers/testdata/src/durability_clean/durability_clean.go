// Negative suite for the durability analyzer: every commit point
// reaches a sync and every refcount change is journaled first.
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
	always bool
}

type journal struct{ f *os.File }

func (j *journal) append(recs []byte) error {
	_, err := j.f.WriteAt(recs, 0)
	return err
}

// Commit honors the fsync policy before acking.
func (s *store) Commit() error {
	if err := s.flush(); err != nil {
		return err
	}
	if s.always {
		return s.fsyncLocked()
	}
	return nil
}

// flush writes the staged chunk bytes, then the records that name them.
func (s *store) flush() error {
	if err := s.writeRunLocked(); err != nil {
		return err
	}
	_, err := s.wal.WriteAt(s.walBuf, 0)
	return err
}

// flushThroughJournal is flush through the journal type. The builtin
// append that stages a record may come before the run is written; the
// journal's append may not.
func (s *store) flushThroughJournal(rec []byte) error {
	s.walBuf = append(s.walBuf, rec...)
	if err := s.writeRunLocked(); err != nil {
		return err
	}
	return s.jnl.append(s.walBuf)
}

// writeRunLocked writes a buffer with WriteAt too, but not the journal's.
func (s *store) writeRunLocked() error {
	_, err := s.f.WriteAt(s.run, 0)
	return err
}

func (s *store) fsyncLocked() error { return s.f.Sync() }

func (s *store) Checkpoint() error { return s.fsyncLocked() }

func (s *store) DeleteRecipe(name string) error {
	if err := s.appendTombstone(name); err != nil {
		return err
	}
	return s.fsyncLocked()
}

func (s *store) appendTombstone(name string) error { return nil }

// removeRecipe journals the tombstone durably, then applies.
func (s *store) removeRecipe(name string, refs []ref) error {
	if err := s.DeleteRecipe(name); err != nil {
		return err
	}
	s.releaseRefs(refs)
	return nil
}

// releaseRefs journals each delta before applying it.
func (s *store) releaseRefs(refs []ref) {
	for _, r := range refs {
		s.LogRefDelta(r.h, -1)
		s.applyDelta(r)
	}
}

func (s *store) applyDelta(r ref)            {}
func (s *store) LogRefDelta(h string, d int) {}
