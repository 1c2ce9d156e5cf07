package persist

import (
	"fmt"
	"os"
	"path/filepath"

	"shredder/internal/obs"
)

// journal is one append-only file of framed records (wal.go): a shard's
// WAL or the store's recipes.wal. It is the only code that opens,
// appends to, truncates, fsyncs or replaces a journal file. It does no
// locking of its own — the owner's mutex (diskShard.mu, Backing.rmu)
// guards it — and its zero value is a closed journal.
type journal struct {
	path  string
	f     *os.File
	size  int64 // bytes framed so far; the next append lands here
	dirty bool  // has writes not yet fsynced
	// failed is set when a rewrite died after closing the old file and
	// before the new one was open: the journal fail-stops with the
	// original fault instead of a bare "closed".
	failed error
}

// openJournal opens (creating it if need be) the journal at path and
// hands every intact record to replay, in order. A record replay rejects
// with errTornRecord ends the clean prefix exactly like a torn one, and
// the file is cut back to that prefix; any other error from replay
// refuses the open. A leftover temp file means a crash hit a rewrite
// before its rename: the old journal is authoritative.
func openJournal(path string, replay func(body []byte) error) (journal, error) {
	if err := os.Remove(path + ".tmp"); err != nil && !os.IsNotExist(err) {
		return journal{}, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return journal{}, err
	}
	raw, err := os.ReadFile(path)
	var clean int
	if err == nil {
		clean, err = scanRecords(raw, replay)
	}
	if err == nil && clean < len(raw) {
		err = f.Truncate(int64(clean))
	}
	if err != nil {
		_ = f.Close()
		return journal{}, err
	}
	return journal{path: path, f: f, size: int64(clean)}, nil
}

// usable reports why the journal cannot be written, if it cannot.
func (j *journal) usable() error {
	if j.failed != nil {
		return fmt.Errorf("persist: %s: journal unavailable after failed rewrite: %w", j.path, j.failed)
	}
	if j.f == nil {
		return errClosed
	}
	return nil
}

// append writes already-framed records at the journal's end. On a failed
// write size is not advanced: the next append rewrites the region, and
// recovery ignores any torn tail it may have left.
func (j *journal) append(recs []byte) error {
	if err := j.usable(); err != nil {
		return err
	}
	if _, err := j.f.WriteAt(recs, j.size); err != nil {
		return err
	}
	j.size += int64(len(recs))
	j.dirty = true
	return nil
}

// sync fsyncs the journal if it has unsynced writes.
func (j *journal) sync(m *pmetrics, sp *obs.Span) error {
	if !j.dirty || j.f == nil {
		return nil
	}
	if err := m.timedSync(j.f, sp); err != nil {
		return err
	}
	j.dirty = false
	return nil
}

// rewrite atomically replaces the journal's contents with recs — the
// shard checkpoint and the recipe-log compaction. A failure before the
// old file is closed leaves the journal as it was; one after it latches
// the fail-stop, because the handle is gone and which file the name now
// holds is unknown until the next open.
func (j *journal) rewrite(recs []byte) error {
	if err := j.usable(); err != nil {
		return err
	}
	oldClosed, err := replaceFile(j.path, j.f, recs)
	if err == nil {
		j.f, err = os.OpenFile(j.path, os.O_RDWR, 0o644)
	}
	if err != nil {
		if oldClosed {
			j.f, j.failed = nil, err
		}
		return err
	}
	j.size, j.dirty = int64(len(recs)), false
	return nil
}

// close releases the file; the journal reports errClosed afterwards.
func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// replaceFile atomically replaces the file at path with buf, the one
// commit protocol every rewritten file in a data directory goes through
// (shard WALs, recipes.wal, MANIFEST): buf is written to path+".tmp" and
// fsynced, old — the open handle on the file being replaced, nil when
// there is none — is closed, the temp file is renamed over path and the
// directory fsynced. A crash at any byte leaves either the old file
// intact or the new one complete (the rename is the commit point;
// leftover temp files are removed at open). On error, oldClosed reports
// whether old was already closed.
func replaceFile(path string, old *os.File, buf []byte) (oldClosed bool, err error) {
	tmpPath := path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return false, err
	}
	if _, err := tmp.Write(buf); err != nil {
		_ = tmp.Close()
		return false, err
	}
	if err := fsyncFile(tmp); err != nil {
		_ = tmp.Close()
		return false, err
	}
	if err := tmp.Close(); err != nil {
		return false, err
	}
	if old != nil {
		if err := old.Close(); err != nil {
			return true, err
		}
	}
	if err := os.Rename(tmpPath, path); err != nil {
		return true, err
	}
	return true, syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
