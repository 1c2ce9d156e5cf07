package persist

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"shredder/internal/obs"
)

// pmetrics is the backing's observability state. The plain atomics are
// maintained unconditionally (one uncontended Add per event, cheaper
// than a branch worth caring about) and exported as scrape-time
// CounterFuncs; the fsync latency histogram is the one hot-path handle
// and lives behind an atomic pointer because the FsyncInterval loop may
// already be syncing when Instrument installs it.
type pmetrics struct {
	walRecords atomic.Int64 // insert/refdelta/relocate records staged
	// containerWrites counts write calls to container files and
	// containerWriteBytes what they carried: one per shard per flush,
	// however many chunks the flush's batch appended.
	containerWrites     atomic.Int64
	containerWriteBytes atomic.Int64
	recipeRecords       atomic.Int64 // recipe commits + tombstones journaled
	checkpoints         atomic.Int64 // shard WAL checkpoints completed
	recoverNanos        atomic.Int64 // cumulative Recover wall time, all shards
	fsyncs              atomic.Int64 // fsync syscalls issued
	syncErrors          atomic.Int64 // fsync syscalls that failed
	flushedBytes        atomic.Int64 // WAL + recipe bytes written through (group batch sizing)
	groupRounds         atomic.Int64 // group-commit sync rounds completed
	fsyncSeconds        atomic.Pointer[obs.Histogram]
	groupWaiters        atomic.Pointer[obs.Histogram]
	groupBytes          atomic.Pointer[obs.Histogram]
	// groupRoundSeconds is what one sync pass took and barrierSeconds what
	// one Barrier caller blocked; a wait well above a pass is time spent
	// queued behind a round that had already closed its membership.
	groupRoundSeconds atomic.Pointer[obs.Histogram]
	barrierSeconds    atomic.Pointer[obs.Histogram]
	// fault latches the first sync failure forever: a disk that failed
	// an fsync holds writes in an unknowable state, so every later
	// commit fails loudly with the original error instead of quietly
	// acking bytes that may never land.
	fault atomic.Pointer[syncFault]
}

// syncFault is the latched first sync failure.
type syncFault struct{ err error }

// latchFault fail-stops the backing with err if no earlier failure is
// already latched.
func (m *pmetrics) latchFault(err error) {
	m.fault.CompareAndSwap(nil, &syncFault{err: err})
}

// syncFailed reports the latched failure, if any, wrapped so callers
// see both the fail-stop and its root cause.
func (m *pmetrics) syncFailed() error {
	if f := m.fault.Load(); f != nil {
		return fmt.Errorf("persist: failing stop after sync failure: %w", f.err)
	}
	return nil
}

// timedSync counts one fsync and, when instrumented, observes its
// latency. A non-nil span gets an fsync child span and the latency
// observation carries the span's trace as its bucket exemplar, so a
// slow fsync bucket links to the stream that paid for it.
func (m *pmetrics) timedSync(f *os.File, sp *obs.Span) error {
	m.fsyncs.Add(1)
	h := m.fsyncSeconds.Load()
	if h == nil && sp == nil {
		return m.checkedSync(f)
	}
	c := sp.Child("fsync")
	t0 := time.Now()
	err := m.checkedSync(f)
	h.ObserveSinceExemplar(t0, sp.Trace())
	c.End()
	return err
}

// fsyncFile is the one call every fsync of a WAL, container or recipe-
// journal file goes through — policy-driven or a journal rewrite's temp
// file. Production never reassigns it; tests wrap it to model a slow disk
// and to record what a crash would have kept.
var fsyncFile = (*os.File).Sync

// checkedSync issues the fsync and, on failure, counts it and latches
// the backing into fail-stop.
func (m *pmetrics) checkedSync(f *os.File) error {
	err := fsyncFile(f)
	if err != nil {
		m.syncErrors.Add(1)
		m.latchFault(err)
	}
	return err
}

// addRecoverSince accumulates Recover wall time. A deferred method
// value — the same shape as obs's Histogram.ObserveSince — so the
// timing point costs no closure allocation.
func (m *pmetrics) addRecoverSince(t0 time.Time) {
	m.recoverNanos.Add(time.Since(t0).Nanoseconds())
}

// Instrument registers the backing's metric families on reg: WAL and
// recipe-journal append counts, fsync count and latency (labeled by the
// configured policy), checkpoint count and recovery duration.
// Everything but the fsync latency histogram is evaluated at scrape
// time. A nil registry is a no-op; call at most once.
func (b *Backing) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	policy := b.opts.Fsync.String()
	reg.CounterFunc("persist_wal_records_total",
		"Index-mutation records (insert, refdelta, relocate) staged to shard WALs.",
		func() float64 { return float64(b.met.walRecords.Load()) })
	reg.CounterFunc("persist_container_writes_total",
		"Write calls to shard container files (one per shard per flushed batch of appends).",
		func() float64 { return float64(b.met.containerWrites.Load()) })
	reg.CounterFunc("persist_container_write_bytes_total",
		"Chunk bytes written to shard container files.",
		func() float64 { return float64(b.met.containerWriteBytes.Load()) })
	reg.CounterFunc("persist_recipe_records_total",
		"Recipe commits and tombstones appended to the recipe journal.",
		func() float64 { return float64(b.met.recipeRecords.Load()) })
	reg.CounterFunc("persist_fsyncs_total",
		"fsync syscalls issued across shard WALs, containers and the recipe journal.",
		func() float64 { return float64(b.met.fsyncs.Load()) },
		"policy", policy)
	reg.CounterFunc("persist_checkpoints_total",
		"Shard WAL checkpoints completed (compaction commit points).",
		func() float64 { return float64(b.met.checkpoints.Load()) })
	reg.CounterFunc("persist_sync_errors_total",
		"Failed fsync syscalls; the first latches the backing into fail-stop.",
		func() float64 { return float64(b.met.syncErrors.Load()) },
		"policy", policy)
	reg.CounterFunc("persist_group_commit_rounds_total",
		"Group-commit sync rounds completed (one shared fsync pass each).",
		func() float64 { return float64(b.met.groupRounds.Load()) })
	reg.GaugeFunc("persist_recovery_seconds",
		"Cumulative wall time the last open spent replaying shard WALs.",
		func() float64 { return float64(b.met.recoverNanos.Load()) / 1e9 })
	reg.GaugeFunc("persist_recipe_log_bytes",
		"Current recipe journal size on disk.",
		func() float64 {
			b.rmu.Lock()
			n := b.recipeLog.size
			b.rmu.Unlock()
			return float64(n)
		})
	b.met.fsyncSeconds.Store(reg.Histogram("persist_fsync_seconds",
		"fsync syscall latency.", obs.LatencyBuckets, "policy", policy))
	b.met.groupWaiters.Store(reg.Histogram("persist_group_commit_waiters",
		"Barrier callers covered by one group-commit sync round (those that arrived before its pass locked the recipe journal).",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128}))
	b.met.groupBytes.Store(reg.Histogram("persist_group_commit_bytes",
		"WAL and recipe-journal bytes made durable per group-commit round.",
		[]float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}))
	b.met.groupRoundSeconds.Store(reg.Histogram("persist_group_round_seconds",
		"Duration of one group-commit sync pass (every dirty shard file, again with the recipe journal locked, then the journal).",
		obs.LatencyBuckets))
	b.met.barrierSeconds.Store(reg.Histogram("persist_barrier_wait_seconds",
		"Time one Barrier caller blocked until the sync round covering its records completed.",
		obs.LatencyBuckets))
}
