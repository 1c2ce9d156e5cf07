package ingest

import (
	"io"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/obs"
)

// backupDedupSequential is the dedup client as it was before the
// pipeline: read, cut, fingerprint, copy and run each round on one
// goroutine. It is the reference BackupDedup is compared against, frame
// for frame.
func (s *Session) backupDedupSequential(name string, r io.Reader) (*StreamStats, error) {
	if s.version < 3 || s.eng == nil {
		return nil, ErrDedupUnsupported
	}
	if err := s.BeginDedup(name, obs.SpanContext{}); err != nil {
		return nil, err
	}
	var (
		hs     []dedup.Hash
		bodies [][]byte
		held   int64
	)
	flush := func() error {
		if len(hs) == 0 {
			return nil
		}
		if _, err := s.DedupRound(hs, bodies); err != nil {
			return err
		}
		hs, bodies, held = hs[:0], bodies[:0], 0
		return nil
	}
	sink := s.eng.Stream(func(c chunk.Chunk, data []byte) error {
		hs = append(hs, dedup.Sum(data))
		bodies = append(bodies, append([]byte(nil), data...))
		held += int64(len(data))
		if len(hs) >= batchChunks || held >= batchBytes {
			return flush()
		}
		return nil
	})
	if _, err := io.Copy(sink, r); err != nil {
		return nil, err
	}
	if err := sink.Close(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return s.CommitDedup()
}
