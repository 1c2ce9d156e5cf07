// Command backupsim runs the cloud-backup case study (§7): it backs up
// a master VM image and a sequence of snapshots with configurable
// segment churn, using either the Shredder GPU pipeline or the pthreads
// CPU baseline, and reports per-snapshot bandwidth and dedup.
//
//	backupsim [-image MiB] [-snapshots N] [-prob p] [-engine gpu|cpu] [-seed N]
//
// With -server it instead acts as a shredderd client: the same image
// series is streamed over TCP to the daemon, which chunks and dedups it
// server-side and reports per-stream statistics. -chunker negotiates
// the session's chunking engine (fastcdc, or the server-default rabin).
//
//	backupsim -server host:9323 [-chunker rabin|fastcdc] [-avg KiB]
//	          [-image MiB] [-snapshots N] [-prob p] [-seed N] [-name prefix]
//
// With -data it simulates a server restart: the series is ingested by
// an in-process shredderd backed by a durable data directory
// (internal/persist), the store is closed, reopened from disk, and
// every stream is verified to restore byte-exactly with the dedup
// statistics preserved.
//
//	backupsim -data DIR [-fsync policy] [-image MiB] [-snapshots N] [-prob p] [-seed N] [-name prefix]
//
// With -dedup-wire (in -server or -data mode) streams go over the
// two-phase content-addressed protocol: backupsim chunks locally,
// ships fingerprints first, uploads only the chunk bodies the daemon
// is missing, and reports the wire bytes saved per stream.
//
// With -retention N it runs the retention scenario against a durable
// in-process server: N generations of a churning image (-prob per
// 64 KiB segment) are ingested over the dedup wire, the oldest
// generation is expired (protocol v3 delete) once the -retain window
// is full, and the store is compacted after every round
// (-gc-threshold). Every retained generation is verified byte-exact
// each round and after a restart, and the run fails if the final disk
// footprint exceeds -amp-limit (default 1.5x) times the live stored
// bytes.
//
// With -cluster N it boots N in-process shredderd nodes behind a
// consistent-hash router and runs the client series through the
// router, verifying every routed restore.
//
// With -parallel-chunk N a -dedup-wire client chunks its local streams
// with chunk.Parallel on N workers (byte-identical boundaries).
//
// backupsim is a scenario driver: it verifies behaviour and prints what
// happened. Performance is measured by the bench/ module.
//
// With -json the progress lines move to stderr and a single end-of-run
// summary object — streams, logical and stored bytes, dedup ratio, wire
// savings, retention amplification — is printed as JSON on stdout, for
// scripts and CI.
//
// With -trace every operation records a span tree. In the in-process
// modes (-data, -retention, -cluster) client and server share one
// tracer, so each backup renders as a single connected tree — client
// root, the server's remote-parented operation span under it, and
// shardstore/persist children (shard puts, WAL appends, fsyncs) below
// that. Trees print at end of run; -json adds per-span-name rollups
// (count, total seconds) to the summary object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"shredder/internal/backup"
	"shredder/internal/chunk"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/persist"
	"shredder/internal/stats"
	"shredder/internal/workload"
)

// human is where the progress lines go: stdout normally, stderr with
// -json so the summary object owns stdout.
var human io.Writer = os.Stdout

// tracer is set by -trace and shared between the client sessions and
// any in-process server, so both sides of a backup land in one trace.
var tracer *obs.Tracer

// serveDone tracks in-process ServeConn goroutines: the end-of-run
// trace snapshot waits for them, so the server half of every tree has
// ended before it renders.
var serveDone sync.WaitGroup

// clientChunkWorkers is -parallel-chunk: when non-zero, dedup-wire
// sessions chunk their local streams with chunk.Parallel on this many
// workers (negative: all cores). Boundaries stay byte-identical to
// the sequential engine, so dedup accounting is unchanged.
var clientChunkWorkers int

// runSummary is the -json end-of-run object. Wire fields appear only
// for dedup-wire runs, retention fields only for -retention runs.
type runSummary struct {
	Mode          string       `json:"mode"` // sim | client | restart | retention
	Streams       int          `json:"streams"`
	LogicalBytes  int64        `json:"logical_bytes"`
	StoredBytes   int64        `json:"stored_bytes"`
	DedupRatio    float64      `json:"dedup_ratio"`
	WireBytes     int64        `json:"wire_bytes,omitempty"`
	WireSaved     int64        `json:"wire_saved_bytes,omitempty"`
	ChunksSent    int64        `json:"chunks_sent,omitempty"`
	ChunksSkipped int64        `json:"chunks_skipped,omitempty"`
	Generations   int          `json:"generations,omitempty"`
	Retained      int          `json:"retained,omitempty"`
	Amplification float64      `json:"amplification,omitempty"`
	Spans         []spanRollup `json:"spans,omitempty"`
}

// spanRollup aggregates one span name across every retained trace —
// the -trace -json view of where the run's time went.
type spanRollup struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Seconds float64 `json:"total_seconds"`
}

// addWire folds one stream's wire stats into the summary.
func (s *runSummary) addWire(w ingest.WireStats) {
	s.WireBytes += w.WireBytes
	s.ChunksSent += w.ChunksSent
	s.ChunksSkipped += w.ChunksSkipped
	if saved := w.Saved(); saved > 0 {
		s.WireSaved += saved
	}
}

// emit writes the summary as one JSON object on stdout.
func (s *runSummary) emit() error {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = os.Stdout.Write(out)
	return err
}

func main() {
	imageMB := flag.Int("image", 64, "image size in MiB")
	snapshots := flag.Int("snapshots", 3, "number of snapshots to back up")
	prob := flag.Float64("prob", 0.1, "per-segment change probability")
	engineName := flag.String("engine", "gpu", "chunking engine: gpu or cpu")
	seed := flag.Int64("seed", 7, "workload seed")
	server := flag.String("server", "", "shredderd address; when set, stream to the service instead of simulating locally")
	data := flag.String("data", "", "data directory; when set, run the durable server-restart round-trip locally")
	fsyncFlag := flag.String("fsync", "always", "fsync policy with -data: always, never, interval[=D], or a duration")
	name := flag.String("name", "vm", "stream name prefix in service mode")
	chunkerName := flag.String("chunker", "rabin", "chunking engine to negotiate with -server/-data: rabin (no negotiation, server default) or fastcdc")
	avgKiB := flag.Int("avg", 4, "fastcdc target chunk size in KiB (power of two), with -chunker=fastcdc")
	dedupWire := flag.Bool("dedup-wire", false, "with -server/-data: chunk client-side and upload only missing chunk bodies (protocol v3)")
	retention := flag.Int("retention", 0, "run the retention scenario: this many generations ingested with the oldest expired and the store compacted each round (uses -data, or a temp dir)")
	retain := flag.Int("retain", 3, "retention scenario: generations kept live")
	gcThreshold := flag.Float64("gc-threshold", 0.7, "retention scenario: compact containers whose live fraction is below this after each round")
	ampLimit := flag.Float64("amp-limit", 1.5, "retention scenario: fail when final disk bytes exceed this multiple of the live stored bytes (0 disables)")
	clusterN := flag.Int("cluster", 0, "boot this many in-process shredderd nodes behind a consistent-hash router and run the client series through it")
	parallelChunk := flag.Int("parallel-chunk", 0, "with -dedup-wire: chunk the local stream with this many workers (chunk.Parallel); 0 or 1 sequential, negative all cores")
	jsonOut := flag.Bool("json", false, "emit a single end-of-run summary object as JSON on stdout (progress lines move to stderr)")
	trace := flag.Bool("trace", false, "record a span tree per operation and print the trees at end of run (-json adds per-span rollups)")
	flag.Parse()

	if *trace {
		// One tracer for the whole run, shared with any in-process
		// server, so client and server spans merge into one tree. The
		// recent ring is sized to hold every operation of a typical run.
		tracer = obs.NewTracer(obs.TracerConfig{Recent: 256})
	}

	if *jsonOut {
		human = os.Stderr
	}
	finish := func(sum *runSummary, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "backupsim:", err)
			os.Exit(1)
		}
		printTraces(sum)
		if *jsonOut {
			if err := sum.emit(); err != nil {
				fmt.Fprintln(os.Stderr, "backupsim:", err)
				os.Exit(1)
			}
		}
	}

	if *retention > 0 {
		if *server != "" {
			fmt.Fprintln(os.Stderr, "backupsim: -retention runs in-process and excludes -server")
			os.Exit(2)
		}
		sum, err := runRetention(retentionConfig{
			dir:       *data,
			fsync:     *fsyncFlag,
			gens:      *retention,
			retain:    *retain,
			size:      *imageMB << 20,
			prob:      *prob,
			threshold: *gcThreshold,
			ampLimit:  *ampLimit,
			seed:      *seed,
		})
		finish(sum, err)
		return
	}

	if *parallelChunk != 0 && !*dedupWire {
		fmt.Fprintln(os.Stderr, "backupsim: -parallel-chunk only applies with -dedup-wire (the client chunks locally there)")
		os.Exit(2)
	}
	clientChunkWorkers = *parallelChunk
	if *server != "" || *data != "" || *clusterN > 0 {
		// Chunking happens server-side in service mode; an explicit
		// -engine would be silently meaningless, so reject it.
		engineSet := false
		flag.Visit(func(f *flag.Flag) { engineSet = engineSet || f.Name == "engine" })
		if engineSet {
			fmt.Fprintln(os.Stderr, "backupsim: -engine has no effect with -server/-data/-cluster (the daemon chunks server-side)")
			os.Exit(2)
		}
	}
	if *server != "" && *data != "" {
		fmt.Fprintln(os.Stderr, "backupsim: -server and -data are mutually exclusive")
		os.Exit(2)
	}
	if *clusterN > 0 && (*server != "" || *data != "") {
		fmt.Fprintln(os.Stderr, "backupsim: -cluster runs in-process and excludes -server/-data")
		os.Exit(2)
	}
	spec, err := sessionSpec(*chunkerName, *avgKiB<<10)
	if err != nil {
		fmt.Fprintln(os.Stderr, "backupsim:", err)
		os.Exit(2)
	}
	if (spec != nil || *dedupWire) && *server == "" && *data == "" && *clusterN == 0 {
		fmt.Fprintln(os.Stderr, "backupsim: -chunker/-dedup-wire only apply with -server/-data/-cluster (the local simulation is the paper's GPU Rabin study)")
		os.Exit(2)
	}
	if *clusterN > 0 {
		sum, err := runCluster(*clusterN, *name, spec, *dedupWire, *imageMB<<20, *snapshots, *prob, *seed)
		finish(sum, err)
		return
	}
	if *server != "" {
		sum, err := runClient(*server, *name, spec, *dedupWire, *imageMB<<20, *snapshots, *prob, *seed)
		finish(sum, err)
		return
	}
	if *data != "" {
		sum, err := runRestart(*data, *fsyncFlag, *name, spec, *dedupWire, *imageMB<<20, *snapshots, *prob, *seed)
		finish(sum, err)
		return
	}

	engine := backup.ShredderGPU
	if *engineName == "cpu" {
		engine = backup.PthreadsCPU
	} else if *engineName != "gpu" {
		fmt.Fprintln(os.Stderr, "backupsim: engine must be gpu or cpu")
		os.Exit(2)
	}

	sum, err := run(*imageMB<<20, *snapshots, *prob, engine, *seed)
	finish(sum, err)
}

// sessionSpec maps the -chunker/-avg flags to the spec to negotiate,
// or nil for the legacy no-negotiation session.
func sessionSpec(algoName string, avg int) (*chunk.Spec, error) {
	if algo, err := chunk.ParseAlgo(algoName); err != nil || algo == chunk.AlgoRabin {
		return nil, err // rabin: server default; skip negotiation entirely
	}
	spec, err := chunk.SpecFromSizes(algoName, avg, 0, 0)
	if err != nil {
		return nil, err
	}
	return &spec, nil
}

// negotiateSession proposes spec on the session when one was requested
// or the dedup-wire path (which always negotiates) is on. For dedup
// with the default -chunker=rabin it negotiates the server's stock
// Rabin configuration, so chunk boundaries match what a raw session
// would produce.
func negotiateSession(c *ingest.Session, spec *chunk.Spec, dedupWire bool) error {
	if spec == nil && !dedupWire {
		return nil
	}
	if dedupWire && clientChunkWorkers != 0 {
		c.SetParallelChunking(clientChunkWorkers)
	}
	var propose chunk.Spec
	if spec != nil {
		propose = *spec
	} else {
		propose = ingest.DefaultConfig().Shredder.Chunking
	}
	var accepted chunk.Spec
	var err error
	if dedupWire {
		accepted, err = c.NegotiateDedup(propose)
	} else {
		accepted, err = c.Negotiate(propose)
	}
	if err != nil {
		return err
	}
	mode := "server-chunked"
	if dedupWire {
		mode = fmt.Sprintf("dedup-wire (client-chunked, protocol v%d)", c.Version())
	}
	fmt.Fprintf(human, "negotiated %s engine (avg %s, min %s, max %s), %s\n",
		accepted.Algo, stats.Bytes(int64(accepted.AvgSize)),
		stats.Bytes(int64(accepted.MinSize)), stats.Bytes(int64(accepted.MaxSize)), mode)
	return nil
}

// pushStream backs one stream up (raw or dedup-wire), verifies the
// restore, and prints its line, returning the stream stats.
func pushStream(c *ingest.Session, name string, data []byte, dedupWire bool) (*ingest.StreamStats, error) {
	var st *ingest.StreamStats
	var err error
	if dedupWire {
		st, err = c.BackupDedupBytes(name, data)
	} else {
		st, err = c.BackupBytes(name, data)
	}
	if err != nil {
		return nil, err
	}
	if err := c.Verify(name, data); err != nil {
		return nil, err
	}
	wire := ""
	if st.Wire.Saved() > 0 {
		wire = fmt.Sprintf(", wire %s of %s (saved %s)",
			stats.Bytes(st.Wire.WireBytes), stats.Bytes(st.Wire.LogicalBytes), stats.Bytes(st.Wire.Saved()))
	}
	fmt.Fprintf(human, "%s: %s in %d chunks, %d dup, ratio %.2fx, restore verified%s; store %s stored of %s (%.2fx)\n",
		name, stats.Bytes(st.Bytes), st.Chunks, st.DupChunks, st.DedupRatio(), wire,
		stats.Bytes(st.Store.StoredBytes), stats.Bytes(st.Store.LogicalBytes), st.Store.Ratio())
	return st, nil
}

// runClient streams the image series to a shredderd daemon and verifies
// every stream restores byte-exactly over the wire.
func runClient(addr, prefix string, spec *chunk.Spec, dedupWire bool, size, snapshots int, prob float64, seed int64) (*runSummary, error) {
	c, err := ingest.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	// With -trace the client half of each tree prints locally; the
	// remote daemon's half lands in its own /debug/traces, joined to
	// ours by the trace ID in the v4 Hello/BeginDedup context.
	c.SetTracer(tracer)
	if err := negotiateSession(c, spec, dedupWire); err != nil {
		return nil, err
	}
	im := workload.NewImage(seed, size, 64<<10, prob)

	sum := &runSummary{Mode: "client"}
	var logical, wired int64
	push := func(name string, data []byte) error {
		st, err := pushStream(c, name, data, dedupWire)
		if err != nil {
			return err
		}
		logical += st.Wire.LogicalBytes
		wired += st.Wire.WireBytes
		sum.Streams++
		sum.LogicalBytes += st.Bytes
		if dedupWire {
			sum.addWire(st.Wire)
		}
		sum.StoredBytes = st.Store.StoredBytes
		sum.DedupRatio = st.Store.Ratio()
		return nil
	}

	if err := push(prefix+"-master", im.Master); err != nil {
		return nil, err
	}
	for i := 1; i <= snapshots; i++ {
		if err := push(fmt.Sprintf("%s-snapshot-%d", prefix, i), im.Snapshot(seed+int64(i))); err != nil {
			return nil, err
		}
	}
	if dedupWire {
		saved := logical - wired
		if saved < 0 {
			// Fingerprint overhead outweighed the dedup on this series.
			saved = 0
		}
		fmt.Fprintf(human, "series total: %s crossed the wire for %s logical (saved %s)\n",
			stats.Bytes(wired), stats.Bytes(logical), stats.Bytes(saved))
	}
	return sum, nil
}

// runRestart is the durability round-trip: ingest the series into an
// in-process persist-backed server, close the store (simulating a
// daemon restart), reopen it from the data directory, and verify every
// stream restores byte-exactly with the dedup statistics preserved.
func runRestart(dir, fsyncStr, prefix string, spec *chunk.Spec, dedupWire bool, size, snapshots int, prob float64, seed int64) (*runSummary, error) {
	policy, err := persist.ParseFsyncPolicy(fsyncStr)
	if err != nil {
		return nil, err
	}
	opts := persist.Options{Fsync: policy}
	im := workload.NewImage(seed, size, 64<<10, prob)
	streams := map[string][]byte{prefix + "-master": im.Master}
	order := []string{prefix + "-master"}
	for i := 1; i <= snapshots; i++ {
		n := fmt.Sprintf("%s-snapshot-%d", prefix, i)
		streams[n] = im.Snapshot(seed + int64(i))
		order = append(order, n)
	}

	// Phase 1: ingest everything through the service path, then close.
	store, err := persist.OpenStore(dir, opts)
	if err != nil {
		return nil, err
	}
	srv, err := ingest.NewServerWithStore(simConfig(), store)
	if err != nil {
		store.Close()
		return nil, err
	}
	c := dialInProcess(srv)
	if err := negotiateSession(c, spec, dedupWire); err != nil {
		store.Close()
		return nil, err
	}
	sum := &runSummary{Mode: "restart"}
	for _, n := range order {
		var st *ingest.StreamStats
		if dedupWire {
			st, err = c.BackupDedupBytes(n, streams[n])
		} else {
			st, err = c.BackupBytes(n, streams[n])
		}
		if err != nil {
			store.Close()
			return nil, err
		}
		sum.Streams++
		if dedupWire {
			sum.addWire(st.Wire)
		}
		wire := ""
		if st.Wire.Saved() > 0 {
			wire = fmt.Sprintf(", wire %s of %s", stats.Bytes(st.Wire.WireBytes), stats.Bytes(st.Wire.LogicalBytes))
		}
		fmt.Fprintf(human, "%s: %s in %d chunks, %d dup, ratio %.2fx%s\n",
			n, stats.Bytes(st.Bytes), st.Chunks, st.DupChunks, st.DedupRatio(), wire)
	}
	c.Close()
	before := store.Stats()
	sum.LogicalBytes = before.LogicalBytes
	sum.StoredBytes = before.StoredBytes
	sum.DedupRatio = before.Ratio()
	if err := store.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(human, "closed store: %s stored of %s logical (%.2fx); restarting from %s\n",
		stats.Bytes(before.StoredBytes), stats.Bytes(before.LogicalBytes), before.Ratio(), dir)

	// Phase 2: reopen from disk and verify.
	store, err = persist.OpenStore(dir, opts)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	if after := store.Stats(); after != before {
		return nil, fmt.Errorf("recovered stats %+v differ from pre-restart %+v", after, before)
	}
	srv, err = ingest.NewServerWithStore(simConfig(), store)
	if err != nil {
		return nil, err
	}
	c = dialInProcess(srv)
	defer c.Close()
	for _, n := range order {
		if err := c.Verify(n, streams[n]); err != nil {
			return nil, fmt.Errorf("after restart, %s: %w", n, err)
		}
	}
	fmt.Fprintf(human, "restart verified: %d streams restored byte-exactly, stats preserved %+v\n",
		len(order), before)
	return sum, nil
}

// dialInProcess connects a client to the server over an in-memory pipe.
func dialInProcess(srv *ingest.Server) *ingest.Session {
	cend, send := net.Pipe()
	serveDone.Add(1)
	go func() {
		defer serveDone.Done()
		defer send.Close()
		_ = srv.ServeConn(send)
	}()
	c := ingest.NewSession(cend)
	c.SetTracer(tracer)
	return c
}

// simConfig is the in-process server configuration: the stock config
// plus the shared tracer when -trace is on.
func simConfig() ingest.Config {
	cfg := ingest.DefaultConfig()
	cfg.Tracer = tracer
	return cfg
}

// printTraces waits out the in-process server goroutines (so the
// server half of every tree has ended), renders each retained trace,
// and folds per-span-name rollups into the summary for -json.
func printTraces(sum *runSummary) {
	if tracer == nil {
		return
	}
	serveDone.Wait()
	tds := tracer.Snapshot()
	agg := map[string]*spanRollup{}
	// Snapshot is most-recent-first; print in run order.
	for i := len(tds) - 1; i >= 0; i-- {
		td := tds[i]
		fmt.Fprintf(human, "\n%s", td.Tree())
		for _, s := range td.Spans {
			r := agg[s.Name]
			if r == nil {
				r = &spanRollup{Name: s.Name}
				agg[s.Name] = r
			}
			r.Count++
			r.Seconds += s.Duration
		}
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sum.Spans = append(sum.Spans, *agg[n])
	}
}

// retentionConfig parameterizes the retention scenario.
type retentionConfig struct {
	dir       string // data directory; empty means a temp dir
	fsync     string
	gens      int
	retain    int
	size      int
	prob      float64 // per-segment churn between generations
	threshold float64 // compaction live-fraction threshold
	ampLimit  float64 // max allowed disk/live amplification (0: off)
	seed      int64
}

// churn mutates the previous generation: each segment is replaced with
// fresh random bytes with probability prob — the paper's incremental
// backup workload, chained so every generation drifts further.
func churn(prev []byte, seed int64, segSize int, prob float64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := append([]byte(nil), prev...)
	for off := 0; off < len(out); off += segSize {
		end := off + segSize
		if end > len(out) {
			end = len(out)
		}
		if rng.Float64() < prob {
			copy(out[off:end], workload.Random(seed+int64(off), end-off))
		}
	}
	return out
}

// diskUsage sums every file under dir.
func diskUsage(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// runRetention is the retention acceptance scenario: N generations are
// ingested over the v3 dedup wire, the oldest expired (MsgDelete) once
// the retain window is full, and the store compacted after every
// round. Every live generation is verified to restore byte-exactly
// each round and again after a restart, and the run fails if the final
// on-disk footprint exceeds ampLimit times the live stored bytes — the
// "disk can only grow" leak this subsystem exists to close.
func runRetention(cfg retentionConfig) (*runSummary, error) {
	policy, err := persist.ParseFsyncPolicy(cfg.fsync)
	if err != nil {
		return nil, err
	}
	dir := cfg.dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "shredder-retention-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	// Small containers so liveness is tracked at fine grain: a 256 KiB
	// container whose snapshots expired goes fully dead quickly.
	opts := persist.Options{Fsync: policy, ContainerSize: 256 << 10}
	store, err := persist.OpenStore(dir, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if store != nil {
			store.Close()
		}
	}()
	srv, err := ingest.NewServerWithStore(simConfig(), store)
	if err != nil {
		return nil, err
	}
	c := dialInProcess(srv)
	defer c.Close()
	if _, err := c.NegotiateDedup(ingest.DefaultConfig().Shredder.Chunking); err != nil {
		return nil, err
	}
	sum := &runSummary{Mode: "retention"}

	const segSize = 64 << 10
	type gen struct {
		name string
		data []byte
	}
	var live []gen
	// The last round's footprint: what the run reports and asserts on.
	var stored, disk int64
	data := workload.Random(cfg.seed, cfg.size)
	for g := 1; g <= cfg.gens; g++ {
		if g > 1 {
			data = churn(data, cfg.seed+int64(g), segSize, cfg.prob)
		}
		name := fmt.Sprintf("gen-%d", g)
		st, err := c.BackupDedupBytes(name, data)
		if err != nil {
			return nil, fmt.Errorf("backup %s: %w", name, err)
		}
		live = append(live, gen{name, data})
		sum.Streams++
		sum.addWire(st.Wire)

		var freed int64
		if len(live) > cfg.retain {
			oldest := live[0]
			live = live[1:]
			ds, err := c.Delete(oldest.name)
			if err != nil {
				return nil, fmt.Errorf("delete %s: %w", oldest.name, err)
			}
			freed = ds.BytesFreed
		}
		cs, err := store.Compact(cfg.threshold)
		if err != nil {
			return nil, fmt.Errorf("compact after %s: %w", name, err)
		}

		for _, lg := range live {
			if err := c.Verify(lg.name, lg.data); err != nil {
				return nil, fmt.Errorf("round %d, %s: %w", g, lg.name, err)
			}
		}
		if disk, err = diskUsage(dir); err != nil {
			return nil, err
		}
		stored = store.Stats().StoredBytes
		fmt.Fprintf(human, "%s: wire %s of %s; live %d streams, %s stored, %s on disk (amp %.2fx); gc freed %s, reclaimed %s\n",
			name, stats.Bytes(st.Wire.WireBytes), stats.Bytes(st.Wire.LogicalBytes),
			len(live), stats.Bytes(stored), stats.Bytes(disk), float64(disk)/float64(stored),
			stats.Bytes(freed), stats.Bytes(cs.ReclaimedBytes))
	}

	// Restart: the retained generations must come back byte-exactly
	// from the compacted directory.
	c.Close()
	if err := store.Close(); err != nil {
		return nil, err
	}
	store, err = persist.OpenStore(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("reopen after retention churn: %w", err)
	}
	srv, err = ingest.NewServerWithStore(simConfig(), store)
	if err != nil {
		return nil, err
	}
	c2 := dialInProcess(srv)
	defer c2.Close()
	for _, lg := range live {
		if err := c2.Verify(lg.name, lg.data); err != nil {
			return nil, fmt.Errorf("after restart, %s: %w", lg.name, err)
		}
	}
	amp := float64(disk) / float64(stored)
	sum.Generations = cfg.gens
	sum.Retained = len(live)
	for _, lg := range live {
		sum.LogicalBytes += int64(len(lg.data))
	}
	sum.StoredBytes = stored
	sum.DedupRatio = store.Stats().Ratio()
	sum.Amplification = amp
	fmt.Fprintf(human, "retention done: %d generations, %d retained and restart-verified; final amp %.2fx (%s disk / %s live)\n",
		cfg.gens, len(live), amp, stats.Bytes(disk), stats.Bytes(stored))
	if cfg.ampLimit > 0 && amp > cfg.ampLimit {
		return nil, fmt.Errorf("space amplification %.2fx exceeds the %.2fx limit", amp, cfg.ampLimit)
	}
	return sum, nil
}

func run(size, snapshots int, prob float64, engine backup.Engine, seed int64) (*runSummary, error) {
	srv, err := backup.NewServer(backup.DefaultConfig())
	if err != nil {
		return nil, err
	}
	im := workload.NewImage(seed, size, 64<<10, prob)

	rep, err := srv.Backup("master", im.Master, engine)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(human, "master: %s at %s (all unique)\n", stats.Bytes(rep.Bytes), stats.Gbps(rep.Bandwidth))

	for i := 1; i <= snapshots; i++ {
		name := fmt.Sprintf("snapshot-%d", i)
		snap := im.Snapshot(seed + int64(i))
		rep, err := srv.Backup(name, snap, engine)
		if err != nil {
			return nil, err
		}
		if err := srv.VerifyRestore(name, snap); err != nil {
			return nil, err
		}
		fmt.Fprintf(human, "%s: %s at %s, %.0f%% duplicate chunks, dedup %.1fx, restore verified\n",
			name, stats.Bytes(rep.Bytes), stats.Gbps(rep.Bandwidth),
			float64(rep.DupChunks)/float64(rep.Chunks)*100, rep.DedupRatio())
	}
	st := srv.SiteStats()
	fmt.Fprintf(human, "backup site: %s logical, %s stored, ratio %.2fx [engine %v]\n",
		stats.Bytes(st.LogicalBytes), stats.Bytes(st.StoredBytes), st.Ratio(), engine)
	return &runSummary{
		Mode:         "sim",
		Streams:      1 + snapshots,
		LogicalBytes: st.LogicalBytes,
		StoredBytes:  st.StoredBytes,
		DedupRatio:   st.Ratio(),
	}, nil
}
