// Command shredderd is the Shredder ingest daemon: a consolidated
// chunk-and-dedup service (§7's cloud-backup server, made concurrent).
// Clients stream raw data over TCP; the daemon chunks each stream with
// the session's chunking engine, dedups it in batches against a sharded
// fingerprint index shared by every session, and reports per-stream
// dedup statistics. cmd/backupsim -server is a ready-made client.
//
// With -data the store is durable: container bytes and a per-shard
// write-ahead log live under the data directory (internal/persist),
// recipes are committed before a stream is acknowledged, and a restart
// recovers the full index, refcounts, recipes and statistics. -fsync
// picks the durability/throughput trade-off. SIGINT/SIGTERM drain
// active sessions and flush the store before exiting.
//
// The chunking engine is negotiated per session: clients that send a
// spec get it (any engine the build knows), clients that don't get the
// server default, selectable with -chunker/-avg/-minchunk/-maxchunk.
// Protocol-v3 sessions may run two-phase dedup ingest (client-side
// chunking; only missing chunk bodies cross the wire) — per-stream
// logging then reports the wire bytes saved; -dedup-wire=false caps
// the protocol at v2 for operators who want the legacy behavior only.
//
// Retention: v3 sessions can expire streams with the delete op; the
// recipe is durably tombstoned and its chunk references released
// before the ack. Space comes back via container compaction — run it
// in the background with -gc-interval (containers whose live fraction
// drops below -gc-threshold are rewritten and unlinked, crash-safely).
//
// Operability: -admin serves /metrics (Prometheus text; ?format=json
// for a flat JSON snapshot), /healthz, /readyz (503 once a drain
// begins), /statusz, /debug/traces and net/http/pprof. Logging is
// structured (log/slog): -log-level picks the floor, -log-json
// switches to JSON lines, and every session logs under a unique
// "session" id from accept to close. Every client operation records a
// span tree (negotiate through store and WAL/fsync children); recent
// trees show on /statusz and dump as JSON at /debug/traces, and
// -trace-slow D retains any operation at or over D and logs its tree.
//
// Hot-path tuning: -parallel-chunk N cuts server-side (raw-path)
// streams on N cores with byte-identical boundaries (chunk.Parallel);
// -commit-window D (any D > 0; the value is a switch, nothing sleeps it)
// turns on group commit under -fsync always: concurrent sessions' fsyncs
// share sync passes that start as soon as a commit is waiting, every
// session still acked only after the pass covering its records really
// returned.
//
//	shredderd [-addr :9323] [-admin :7071] [-shards N] [-batch N]
//	          [-chunker rabin|fastcdc] [-avg KiB] [-minchunk KiB] [-maxchunk KiB]
//	          [-dedup-wire=true|false] [-parallel-chunk N]
//	          [-data DIR] [-fsync always|never|interval[=D]] [-commit-window D]
//	          [-gc-interval D] [-gc-threshold F] [-trace-slow D]
//	          [-grace D] [-log-level L] [-log-json] [-quiet]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/persist"
	"shredder/internal/shardstore"
	"shredder/internal/stats"
)

func main() {
	addr := flag.String("addr", ":9323", "TCP listen address")
	admin := flag.String("admin", ":7071", "admin HTTP address for /metrics, /healthz, /readyz, /statusz and pprof (empty: disabled)")
	shards := flag.Int("shards", 16, "store shard count (power of two)")
	batch := flag.Int("batch", 64, "uploaded chunk bodies per store put on the dedup wire (raw streams put the chunking pipeline's batches and do not read it)")
	chunkerName := flag.String("chunker", "rabin", "default chunking engine for sessions that skip negotiation: rabin or fastcdc")
	avgKiB := flag.Int("avg", 4, "target average chunk size in KiB (power of two)")
	minKiB := flag.Int("minchunk", 0, "minimum chunk size in KiB (0: engine default)")
	maxKiB := flag.Int("maxchunk", 0, "maximum chunk size in KiB (0: engine default)")
	dedupWire := flag.Bool("dedup-wire", true, "accept protocol v3+ two-phase dedup sessions (client-side chunking, only missing bodies cross the wire); false caps the protocol at v2")
	parallelChunk := flag.Int("parallel-chunk", 0, "chunk server-side streams on this many cores (byte-identical output; -1: all cores, 0/1: sequential)")
	data := flag.String("data", "", "data directory for durable storage (empty: in-memory only)")
	fsyncFlag := flag.String("fsync", "interval", "fsync policy with -data: always, never, interval[=D], or a duration")
	commitWindow := flag.Duration("commit-window", 2*time.Millisecond, "group commit with -fsync always, as a switch: any positive value shares one fsync pass among the sessions committing while the previous pass runs (a lone commit pays one pass, nothing waits out the value); 0: inline fsync at every commit point")
	scrub := flag.Bool("scrub", false, "verify every chunk's fingerprint during recovery (reads all containers)")
	gcInterval := flag.Duration("gc-interval", 0, "background container-compaction period (0: GC disabled)")
	gcThreshold := flag.Float64("gc-threshold", 0.5, "compact containers whose live fraction is below this (0: only fully-dead containers)")
	traceSlow := flag.Duration("trace-slow", 0, "retain and log the span tree of any operation at or over this duration (0: keep recent traces only)")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for active sessions")
	logLevel := flag.String("log-level", "info", "log floor: debug, info, warn or error")
	logJSON := flag.Bool("log-json", false, "emit JSON log lines instead of text")
	quiet := flag.Bool("quiet", false, "suppress per-stream logging (same as -log-level warn)")
	flag.Parse()
	if *gcThreshold < 0 || *gcThreshold > 1 {
		fatal(fmt.Errorf("gc-threshold %v outside [0, 1]", *gcThreshold))
	}

	logger, err := obs.NewLogger(*logLevel, *logJSON, *quiet)
	if err != nil {
		fatal(err)
	}

	reg := obs.NewRegistry()
	bi := obs.RegisterBuildInfo(reg)
	// Tracing is always on (two small bounded rings); -trace-slow adds
	// slow-trace retention and a logged span tree per slow operation.
	tracer := obs.NewDaemonTracer(*traceSlow, logger)
	cfg := ingest.DefaultConfig()
	cfg.Shards = *shards
	cfg.BatchSize = *batch
	cfg.Obs = reg
	cfg.Logger = logger
	cfg.Tracer = tracer
	// Only replace the default engine when a chunking flag was given:
	// the stock configuration must stay byte-identical for existing
	// deployments.
	chunkingSet := false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "chunker", "avg", "minchunk", "maxchunk":
			chunkingSet = true
		}
	})
	if chunkingSet {
		spec, err := chunk.SpecFromSizes(*chunkerName, *avgKiB<<10, *minKiB<<10, *maxKiB<<10)
		if err != nil {
			fatal(err)
		}
		cfg.Shredder.Chunking = spec
	}
	if !*dedupWire {
		cfg.MaxProtocol = 2
	}
	cfg.Shredder.HostWorkers = *parallelChunk

	var store *shardstore.Store
	if *data != "" {
		policy, err := persist.ParseFsyncPolicy(*fsyncFlag)
		if err != nil {
			fatal(err)
		}
		// Only pin the shard count when -shards was given explicitly:
		// an existing data dir fixed it in its manifest, and restarting
		// without the original flag must just adopt it.
		shardsOpt := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				shardsOpt = *shards
			}
		})
		store, err = persist.OpenStore(*data, persist.Options{
			Shards: shardsOpt, Fsync: policy, VerifyOnRecover: *scrub, Obs: reg,
			CommitWindow: *commitWindow, Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		*shards = store.NumShards()
		st := store.Stats()
		logger.Info("recovered store", "bytes", fmtBytes(st.StoredBytes),
			"chunks", st.UniqueChunks, "streams", len(store.RecipeNames()),
			"dir", *data, "fsync", policy.String())
	} else {
		var err error
		store, err = shardstore.New(*shards, 0)
		if err != nil {
			fatal(err)
		}
	}
	srv, err := ingest.NewServerWithStore(cfg, store)
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	// GC metrics are daemon-level: the loop below is the only caller.
	gcRuns := reg.Counter("gc_runs_total", "Background compaction passes completed (including no-op passes).")
	gcReclaimed := reg.Counter("gc_reclaimed_bytes_total", "Container bytes returned to the filesystem by background compaction.")
	gcMoved := reg.Counter("gc_moved_bytes_total", "Live bytes relocated into fresh containers by background compaction.")
	gcSeconds := reg.Histogram("gc_seconds", "Background compaction pass duration.", obs.LatencyBuckets)
	gcDebt := func() float64 {
		_, live, total := store.ContainerUsage()
		if total == 0 {
			return 0
		}
		return float64(total-live) / float64(total)
	}
	reg.GaugeFunc("gc_debt",
		"Dead fraction of stored container bytes (0 = fully live; compaction target).",
		gcDebt)
	// lastGC is the wall time of the last completed pass (unix nanos, 0
	// before the first), rendered on /statusz alongside the counters.
	var lastGC atomic.Int64

	// Admin endpoint: metrics, health, readiness and pprof. Readiness
	// flips to 503 the moment a drain begins so a load balancer stops
	// routing new backups to a daemon that is about to go away.
	adm := obs.NewAdmin(reg, func(w io.Writer) {
		st := store.Stats()
		containers, live, total := store.ContainerUsage()
		fmt.Fprintf(w, "build %s (go %s, rev %s)\n", bi.Version, bi.GoVersion, bi.Revision)
		fmt.Fprintf(w, "listen %s\n", l.Addr())
		fmt.Fprintf(w, "stored %s of %s logical (%.2fx)\n",
			fmtBytes(st.StoredBytes), fmtBytes(st.LogicalBytes), st.Ratio())
		fmt.Fprintf(w, "chunks %d unique of %d seen (%d dup hits)\n",
			st.UniqueChunks, st.Chunks, st.IndexHits)
		fmt.Fprintf(w, "streams %d\n", len(store.RecipeNames()))
		fmt.Fprintf(w, "containers %d (%s live of %s)\n",
			containers, fmtBytes(live), fmtBytes(total))
		switch t := lastGC.Load(); {
		case *gcInterval <= 0:
			fmt.Fprintf(w, "gc disabled (debt %.2f)\n", gcDebt())
		case t == 0:
			fmt.Fprintf(w, "gc pending first pass (debt %.2f)\n", gcDebt())
		default:
			fmt.Fprintf(w, "gc last %s ago, reclaimed %s total, debt %.2f\n",
				time.Since(time.Unix(0, t)).Round(time.Second),
				fmtBytes(gcReclaimed.Value()), gcDebt())
		}
	})
	adm.SetTracer(tracer)
	stopAdmin, err := adm.Serve(*admin, logger)
	if err != nil {
		fatal(err)
	}
	adm.DrainOnSignal(l, logger)

	// Background GC: every interval, compact containers whose live
	// fraction fell below the threshold (retention churn creates them
	// as clients expire snapshots via the delete op).
	var gcStop, gcDone chan struct{}
	if *gcInterval > 0 {
		gcStop, gcDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(gcDone)
			tick := time.NewTicker(*gcInterval)
			defer tick.Stop()
			for {
				select {
				case <-gcStop:
					return
				case <-tick.C:
					sp := tracer.StartRoot("gc", obs.Float("threshold", *gcThreshold))
					start := time.Now()
					cs, err := store.CompactTraced(*gcThreshold, sp)
					gcSeconds.ObserveSinceExemplar(start, sp.Trace())
					sp.Set(obs.Int("reclaimed_bytes", cs.ReclaimedBytes),
						obs.Int("moved_bytes", cs.MovedBytes),
						obs.Int("containers", int64(cs.Containers)))
					sp.End()
					gcRuns.Inc()
					if err != nil {
						// Transient failures (ENOSPC mid-relocate is the
						// likely one) must not disable GC for the rest of
						// the process: log and retry next tick.
						logger.Warn("gc failed", "err", err)
						continue
					}
					gcReclaimed.Add(cs.ReclaimedBytes)
					gcMoved.Add(cs.MovedBytes)
					lastGC.Store(time.Now().UnixNano())
					if cs.Containers > 0 {
						logger.Info("gc pass",
							"reclaimed", fmtBytes(cs.ReclaimedBytes),
							"containers", cs.Containers,
							"moved", fmtBytes(cs.MovedBytes),
							"elapsed", time.Since(start).Round(time.Millisecond).String())
					}
				}
			}
		}()
		logger.Info("gc enabled", "interval", gcInterval.String(), "threshold", *gcThreshold)
	}

	logger.Info("listening", "addr", l.Addr().String(), "shards", *shards,
		"batch", *batch, "engine", cfg.Shredder.Chunking.Algo.String())
	if err := srv.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
		fatal(err)
	}
	srv.Shutdown(*grace)
	if gcStop != nil {
		close(gcStop)
		<-gcDone
	}
	stopAdmin()
	if err := store.Close(); err != nil {
		fatal(err)
	}
	st := store.Stats()
	logger.Info("shut down cleanly", "stored", fmtBytes(st.StoredBytes),
		"logical", fmtBytes(st.LogicalBytes), "ratio", st.Ratio())
}

// fmtBytes is the one byte-formatting helper every human-readable
// daemon line (startup, statusz, gc, shutdown) goes through.
func fmtBytes(n int64) string { return stats.Bytes(n) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shredderd:", err)
	os.Exit(1)
}
