package main

import (
	"math"
	"runtime"
	"syscall"
)

// perLayer lists the traced run's metrics, named <module>.<metric>.
// "situ" ones are timed by the harness's wrappers while the script
// runs, "replay" ones by calling the layer alone afterwards, "count"
// ones repeat exactly for a seed. why says which end-to-end metric the
// layer should move, and on which workload.
var perLayer = []metricDef{
	{"ingest.frame_codec_mbps", "MB/s", "higher", 0, "replay: WriteFrame+ReadFrame in 1 MiB frames → ingest_mbps on full-fastcdc, ingest.restore_mbps"},
	{"ingest.server_read_wait_s_per_gb", "s/GB", "lower", 0, "situ: server blocked reading from the client during bulk ingest; high ⇒ client-bound (expected on snapshots-dedup)"},
	{"ingest.server_self_s_per_gb", "s/GB", "lower", 0, "situ: bulk-ingest wall − read wait − writes − time inside persist: frame decode, chunk, hash, copy, index on the session goroutine → ingest_mbps on full-fastcdc"},
	{"ingest.client_ack_wait_s_per_gb", "s/GB", "lower", 0, "situ: client blocked reading from the server during bulk ingest; high ⇒ server-bound"},
	{"ingest.client_write_s_per_gb", "s/GB", "lower", 0, "situ: client inside conn writes during bulk ingest (blocks when the server falls behind)"},
	{"ingest.client_self_s_per_gb", "s/GB", "lower", 0, "situ: client wall − its conn reads and writes: framing, and on the dedup wire chunk+hash → ingest_mbps on snapshots-dedup"},
	{"ingest.restore_server_self_s_per_gb", "s/GB", "lower", 0, "situ: restore wall − conn time − persist reads on the server: index lookups, per-chunk allocation, framing → ingest.restore_mbps"},
	{"ingest.restore_server_write_s_per_gb", "s/GB", "lower", 0, "situ: server inside conn writes during restore (blocks when the client falls behind)"},
	{"ingest.restore_mbps", "MB/s", "higher", 0, "situ: one bulk stream from the restore request to End, byte-compared, median; spreads 10–23% run to run with the host's speed, so it is not an end-to-end metric"},
	{"ingest.frames_per_stream", "count", "lower", 0, "count: frames the server received per first-round bulk stream"},
	{"ingest.wire_bytes_per_logical_byte", "ratio", "lower", 0, "count: bytes on the client connection, both ways, per logical byte of the first round's ingests (≈1 raw, ≈0.12 on snapshots-dedup)"},
	{"ingest.rounds_per_stream", "count", "lower", 0, "count: client write→read turnarounds per first-round bulk stream → ingest_mbps on snapshots-dedup"},
	{"ingest.commit_rounds_per_stream", "count", "lower", 0, "count: turnarounds per lone 64 KiB stream → commit_lone_p50_ms"},
	{"ingest.commit_lone_p99_ms", "ms", "lower", 0, "situ: lone 64 KiB streams, Begin to ack, nearest-rank p99 (12–18 samples beyond); spreads 20–60% run to run, so it is not an end-to-end metric"},
	{"chunk.fastcdc_split_mbps", "MB/s", "higher", 0, "replay: FastCDC Split → ingest_mbps on full-fastcdc, snapshots-dedup (client side)"},
	{"chunk.fastcdc_stream_mbps", "MB/s", "higher", 0, "replay: FastCDC streaming feed in 1 MiB writes"},
	{"chunk.rabin_split_mbps", "MB/s", "higher", 0, "replay: server-default Rabin Split, the engine a session that does not negotiate gets; no workload's ingest_mbps rides on it"},
	{"chunk.rabin_stream_mbps", "MB/s", "higher", 0, "replay: Rabin streaming feed in 1 MiB writes"},
	{"chunk.chunks_per_stream", "count", "lower", 0, "count: chunks per first-round bulk stream; a boundary change shows here before it silently zeroes dedup"},
	{"chunk.mean_chunk_bytes", "B", "higher", 0, "count: logical bytes per chunk, first round"},
	{"core.chunk_reader_mbps", "MB/s", "higher", 0, "replay: the per-session core.Shredder pipeline the raw path cuts with, on the negotiated engine → ingest_mbps on full-fastcdc"},
	{"dedup.sum_mbps", "MB/s", "higher", 0, "replay: dedup.Sum per chunk → ingest_mbps on full-fastcdc (largest single share), snapshots-dedup"},
	{"shardstore.put_unique_mbps", "MB/s", "higher", 0, "replay on MemoryBacking: PutHashedBatch, 64-chunk batches, all new → ingest_mbps on full-fastcdc"},
	{"shardstore.put_dup_mops", "Mop/s", "higher", 0, "replay on MemoryBacking: the same batches again, all duplicate hits"},
	{"shardstore.pin_mops", "Mop/s", "higher", 0, "replay on MemoryBacking: PinBatch in 256-hash rounds → ingest_mbps on snapshots-dedup"},
	{"shardstore.missing_mops", "Mop/s", "higher", 0, "replay on MemoryBacking: Missing in 256-hash rounds"},
	{"shardstore.get_mbps", "MB/s", "higher", 0, "replay on the run's durable store: GetByHash in recipe order → ingest.restore_mbps"},
	{"shardstore.delete_ms", "ms", "lower", 0, "situ: Session.Delete of one bulk stream, median"},
	{"shardstore.compact_s", "s", "lower", 0, "situ: Store.Compact(0.5) after expiring half the live bulk streams, median"},
	{"shardstore.dup_hit_ratio", "ratio", "higher", 0, "count: duplicate hits per chunk put or pinned during the first round's ingests"},
	{"shardstore.compact_moved_bytes", "B", "lower", 0, "count: live bytes the first retention cycle rewrote → disk_bytes_per_live_byte"},
	{"shardstore.compact_reclaimed_bytes", "B", "higher", 0, "count: dead bytes the first retention cycle returned"},
	{"persist.append_s_per_gb", "s/GB", "lower", 0, "situ: ShardBacking.Append during bulk ingest → ingest_mbps on full-fastcdc"},
	{"persist.append_calls_per_gb", "1/GB", "lower", 0, "situ count: Append calls per logical GB of bulk ingest"},
	{"persist.append_bytes_per_logical_byte", "ratio", "lower", 0, "situ count: chunk bytes appended per logical byte of bulk ingest"},
	{"persist.refdelta_s_per_gb", "s/GB", "lower", 0, "situ: LogRefDelta during bulk ingest → ingest_mbps on snapshots-dedup"},
	{"persist.refdelta_calls_per_gb", "1/GB", "lower", 0, "situ count: LogRefDelta calls per logical GB of bulk ingest"},
	{"persist.shard_commit_s_per_gb", "s/GB", "lower", 0, "situ: per-shard Commit (journal flush) during bulk ingest"},
	{"persist.shard_commit_calls_per_gb", "1/GB", "lower", 0, "situ count: per-shard Commit calls per logical GB of bulk ingest"},
	{"persist.barrier_s_per_gb", "s/GB", "lower", 0, "situ: group-commit Barrier waits during bulk ingest (one per 64-chunk batch under the window) → ingest_mbps on small-commits"},
	{"persist.commit_recipe_ms", "ms", "lower", 0, "situ: Backing.CommitRecipe per lone stream, mean → commit_lone_p50_ms"},
	{"persist.barrier_wait_ms_per_stream", "ms", "lower", 0, "situ: time in Barrier per lone stream → commit_lone_p50_ms on small-commits"},
	{"persist.barrier_calls_per_stream", "count", "lower", 0, "situ count: Barrier calls per lone stream"},
	{"ingest.lone_server_self_ms_per_stream", "ms", "lower", 0, "situ: server self time per lone stream (pipeline set-up, chunk, hash) → commit_lone_p50_ms on the interval-fsync workloads"},
	{"persist.read_s_per_gb", "s/GB", "lower", 0, "situ: ShardBacking.Read during restore → ingest.restore_mbps"},
	{"persist.read_calls_per_gb", "1/GB", "lower", 0, "situ count: Read calls per restored GB"},
	{"persist.put_unique_mbps", "MB/s", "higher", 0, "replay: PutHashedBatch into a fresh durable store under the workload's fsync policy → ingest_mbps"},
	{"persist.fsyncs_per_stream", "count", "lower", 0, "count (obs registry): fsync syscalls per lone stream; tmpfs makes them free, so read this, not their time"},
	{"persist.group_rounds_per_stream", "count", "lower", 0, "count (obs registry): group-commit rounds per lone stream"},
	{"persist.wal_bytes_per_logical_byte", "ratio", "lower", 0, "count: journal bytes on disk per live logical byte after the first round → disk_bytes_per_logical_byte"},
	{"persist.container_bytes_per_logical_byte", "ratio", "lower", 0, "count: container bytes on disk per live logical byte after the first round"},
	{"persist.recover_s", "s", "lower", 0, "situ: reopening the run's data directory as a plain restart does"},
	{"persist.recover_verify_s", "s", "lower", 0, "situ: reopening it with VerifyOnRecover (every chunk re-hashed)"},
	{"proc.cpu_s_per_gb", "s/GB", "lower", 0, "situ: process CPU (rusage, client and server together) per logical GB of bulk ingest"},
	{"proc.alloc_bytes_per_logical_byte", "ratio", "lower", 0, "situ: heap bytes allocated per logical byte of bulk ingest, client and server together (ROADMAP target ≤ 1.2)"},
	{"proc.allocs_per_chunk", "count", "lower", 0, "situ: heap objects allocated per chunk of bulk ingest"},
	{"proc.peak_rss_mb", "MB", "lower", 0, "process peak resident set, harness buffers included"},
	{"proc.gc_pause_ms", "ms", "lower", 0, "total stop-the-world GC pause over the process"},
	{"proc.calib_sha_mbps", "MB/s", "higher", 0, "SHA-256 of 8 MiB on one core before the run: the machine, not the repository"},
	{"proc.calib_memmove_mbps", "MB/s", "higher", 0, "8 MiB copies on one core before the run"},
	{"proc.calib_drift_pct", "%", "lower", 0, "largest change of either probe between before and after the run; a disturbed machine shows here"},
	{"bound.serial_mbps", "MB/s", "higher", 0, "1/(1/frame_codec + 1/chunk_reader + 1/sum + 1/persist.put_unique): the best a one-core serial session could do"},
	{"bound.frac", "ratio", "higher", 0, "untraced-stream ingest_mbps over bound.serial_mbps (ROADMAP target ≥ 0.8)"},
	{"trace.overhead_pct", "%", "lower", 0, "bulk ingest_mbps lost in the traced rounds against the untraced streams interleaved with them in the same run"},
	{"trace.self_sum_err_pct", "%", "lower", 0, "worst single-session operation: |Σ self times − wall| as a share of wall; > 0 means the wrappers over-attributed"},
}

const gb = 1e9

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// A statistic is taken over the quiet samples (steal.go); a run with
// fewer than these falls back on its least disturbed ones: three
// set-ups, one round of bulk streams, two bursts of commits.
const (
	minQuietSetups  = 3
	minQuietStreams = roundStreams
	minQuietBursts  = 2
)

// endToEndValues computes the client-visible figures from the run's
// samples.
func (r *run) endToEndValues() map[string]float64 {
	burst := minQuietBursts * r.p.burst()
	return map[string]float64{
		"setup_s":                     median(r.setupS.quietValues(minQuietSetups)),
		"ingest_mbps":                 median(r.ingestMBps.quietValues(minQuietStreams)),
		"commit_lone_p50_ms":          median(r.loneMs.quietValues(burst)),
		"commit_pair_p99_ms":          percentile(r.pairMs.quietValues(2*burst), 0.99),
		"commit_pair_streams_per_s":   median(r.pairPerSec.quietValues(minQuietBursts)),
		"disk_bytes_per_logical_byte": r.counted.diskPerLogical,
		"disk_bytes_per_live_byte":    r.counted.diskPerLive,
	}
}

// layerValues computes the per-layer figures of a traced run.
func (r *run) layerValues(l *layers, res *result) map[string]float64 {
	kt := func(kind string) kindTotals {
		if t := r.e.rec.totals[kind]; t != nil {
			return *t
		}
		return kindTotals{}
	}
	in, rs, lone := kt("ingest"), kt("restore"), kt("lone")
	sPerGB := func(t kindTotals, id int) float64 { return ratio(float64(t.t[id].ns)/1e9, float64(t.bytes)/gb) }
	callsPerGB := func(t kindTotals, id int) float64 { return ratio(float64(t.t[id].calls), float64(t.bytes)/gb) }
	perOpMs := func(t kindTotals, ns int64) float64 { return ratio(float64(ns)/1e6, float64(t.ops)) }

	plain, tracedMBps := median(r.ingestPlain.quietValues(minQuietStreams)), median(r.ingestMBps.quietValues(minQuietStreams))
	bound := 0.0
	if l.frameCodec > 0 && l.chunkReader > 0 && l.sum > 0 && l.persistPut > 0 {
		bound = 1 / (1/l.frameCodec + 1/l.chunkReader + 1/l.sum + 1/l.persistPut)
	}
	drift := math.Max(
		math.Abs(res.Calib.SHAAfter-res.Calib.SHABefore)/res.Calib.SHABefore,
		math.Abs(res.Calib.MemmoveAfter-res.Calib.MemmoveBefore)/res.Calib.MemmoveBefore)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // a zero peak RSS is the only consequence
	selfErr := 0.0
	for kind, t := range r.e.rec.totals {
		if kind != "pair" {
			selfErr = math.Max(selfErr, t.maxSelfE)
		}
	}
	c := r.counted
	return map[string]float64{
		"ingest.frame_codec_mbps":                  l.frameCodec,
		"ingest.server_read_wait_s_per_gb":         sPerGB(in, tSrvRead),
		"ingest.server_self_s_per_gb":              ratio(float64(in.selfSrv)/1e9, float64(in.bytes)/gb),
		"ingest.client_ack_wait_s_per_gb":          sPerGB(in, tCliRead),
		"ingest.client_write_s_per_gb":             sPerGB(in, tCliWrite),
		"ingest.client_self_s_per_gb":              ratio(float64(in.selfCli)/1e9, float64(in.bytes)/gb),
		"ingest.restore_server_self_s_per_gb":      ratio(float64(rs.selfSrv)/1e9, float64(rs.bytes)/gb),
		"ingest.restore_server_write_s_per_gb":     sPerGB(rs, tSrvWrite),
		"ingest.restore_mbps":                      median(r.restoreMBps.quietValues(minQuietStreams)),
		"ingest.frames_per_stream":                 c.framesPerStream,
		"ingest.wire_bytes_per_logical_byte":       c.wirePerLogical,
		"ingest.rounds_per_stream":                 c.roundsPerStream,
		"ingest.commit_rounds_per_stream":          c.loneRTT,
		"ingest.commit_lone_p99_ms":                percentile(r.loneMs.quietValues(minQuietBursts*r.p.burst()), 0.99),
		"chunk.fastcdc_split_mbps":                 l.fcSplit,
		"chunk.fastcdc_stream_mbps":                l.fcStream,
		"chunk.rabin_split_mbps":                   l.rbSplit,
		"chunk.rabin_stream_mbps":                  l.rbStream,
		"chunk.chunks_per_stream":                  c.chunksPerStream,
		"chunk.mean_chunk_bytes":                   c.meanChunk,
		"core.chunk_reader_mbps":                   l.chunkReader,
		"dedup.sum_mbps":                           l.sum,
		"shardstore.put_unique_mbps":               l.mem.putUniqueMBps,
		"shardstore.put_dup_mops":                  l.mem.putDupMops,
		"shardstore.pin_mops":                      l.mem.pinMops,
		"shardstore.missing_mops":                  l.mem.missingMops,
		"shardstore.get_mbps":                      l.get,
		"shardstore.delete_ms":                     median(r.deleteMs),
		"shardstore.compact_s":                     median(r.compactS),
		"shardstore.dup_hit_ratio":                 c.dupHitRatio,
		"shardstore.compact_moved_bytes":           c.compactMoved,
		"shardstore.compact_reclaimed_bytes":       c.compactReclaimed,
		"persist.append_s_per_gb":                  sPerGB(in, tAppend),
		"persist.append_calls_per_gb":              callsPerGB(in, tAppend),
		"persist.append_bytes_per_logical_byte":    ratio(float64(in.t[tAppend].bytes), float64(in.bytes)),
		"persist.refdelta_s_per_gb":                sPerGB(in, tRefDelta),
		"persist.refdelta_calls_per_gb":            callsPerGB(in, tRefDelta),
		"persist.shard_commit_s_per_gb":            sPerGB(in, tShardCommit),
		"persist.shard_commit_calls_per_gb":        callsPerGB(in, tShardCommit),
		"persist.barrier_s_per_gb":                 sPerGB(in, tBarrier),
		"persist.commit_recipe_ms":                 ratio(float64(lone.t[tCommitRecipe].ns)/1e6, float64(lone.t[tCommitRecipe].calls)),
		"persist.barrier_wait_ms_per_stream":       perOpMs(lone, lone.t[tBarrier].ns),
		"persist.barrier_calls_per_stream":         ratio(float64(lone.t[tBarrier].calls), float64(lone.ops)),
		"ingest.lone_server_self_ms_per_stream":    perOpMs(lone, lone.selfSrv),
		"persist.read_s_per_gb":                    sPerGB(rs, tRead),
		"persist.read_calls_per_gb":                callsPerGB(rs, tRead),
		"persist.put_unique_mbps":                  l.persistPut,
		"persist.fsyncs_per_stream":                c.fsyncsPerLone,
		"persist.group_rounds_per_stream":          c.groupRoundsPerLone,
		"persist.wal_bytes_per_logical_byte":       c.walPerLogical,
		"persist.container_bytes_per_logical_byte": c.containerPerLogical,
		"persist.recover_s":                        l.recoverS,
		"persist.recover_verify_s":                 l.recoverVerifyS,
		"proc.cpu_s_per_gb":                        ratio(float64(in.cpuNs)/1e9, float64(in.bytes)/gb),
		"proc.alloc_bytes_per_logical_byte":        ratio(float64(in.allocB), float64(in.bytes)),
		"proc.allocs_per_chunk":                    ratio(float64(in.allocN), float64(in.chunks)),
		"proc.peak_rss_mb":                         float64(ru.Maxrss) / 1024,
		"proc.gc_pause_ms":                         float64(ms.PauseTotalNs) / 1e6,
		"proc.calib_sha_mbps":                      res.Calib.SHABefore,
		"proc.calib_memmove_mbps":                  res.Calib.MemmoveBefore,
		"proc.calib_drift_pct":                     100 * drift,
		"bound.serial_mbps":                        bound,
		"bound.frac":                               ratio(plain, bound),
		"trace.overhead_pct":                       100 * ratio(plain-tracedMBps, plain),
		"trace.self_sum_err_pct":                   100 * selfErr,
	}
}

// fill completes the result: the metric set the run's mode reports,
// the sample counts behind them, and the verdict.
func (r *run) fill(res *result, l *layers) {
	res.Attempted, res.Failed, res.Failures = r.attempted, r.failed, r.failures
	res.Series = map[string][]float64{"delete_ms": r.deleteMs, "compact_s": r.compactS}
	for name, ss := range map[string]samples{
		"setup_s": r.setupS, "ingest_mbps": r.ingestMBps, "ingest_mbps_untraced": r.ingestPlain,
		"restore_mbps": r.restoreMBps, "commit_lone_ms": r.loneMs, "commit_pair_ms": r.pairMs,
		"commit_pair_streams_per_s": r.pairPerSec,
	} {
		res.Series[name] = ss.values()
		res.Stolen[name] = ss.stolen()
		res.Quiet[name] = ss.quietCount()
	}
	for name, vs := range res.Series {
		res.Samples[name] = len(vs)
	}
	var undeclared []string
	put := func(into map[string]metricValue, defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok {
				undeclared = append(undeclared, "declared metric "+d.name+" is never computed")
			}
			into[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	e2e := r.endToEndValues()
	if l == nil {
		put(res.Metrics, endToEnd, e2e)
	} else {
		put(res.Metrics, perLayer, r.layerValues(l, res))
		res.TracedEndToEnd = map[string]metricValue{}
		put(res.TracedEndToEnd, endToEnd, e2e)
	}
	res.Failures = append(res.Failures, undeclared...)
	res.Correct = res.Failed == 0 && len(undeclared) == 0
	for _, d := range endToEnd {
		// An end-to-end metric of 0 means a phase produced no sample.
		if v := e2e[d.name]; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			res.Failures = append(res.Failures, "no value for "+d.name)
		}
	}
}
