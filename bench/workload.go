package main

import (
	"time"

	"shredder/internal/chunk"
	"shredder/internal/persist"
)

// workload is one row of the benchmark: the same script (bulk rounds
// interleaved with lone and paired small commits, retention, reopen)
// run against a differently configured service with differently shaped
// streams.
type workload struct {
	name, why string
	// dedupWire sends streams over the two-phase protocol: the client
	// chunks and hashes, only missing bodies cross.
	dedupWire bool
	// snapshots makes the bulk streams a chain of 10%-changed images
	// (stream 0, sent during set-up, is the golden one) instead of streams
	// that share nothing.
	snapshots bool
	fsync     persist.FsyncPolicy
	window    time.Duration
	// bulkMiB is the size of one bulk stream; a round is roundStreams of
	// them.
	bulkMiB int
	// retireEvery is how many iterations pass between retention cycles:
	// enough for the streams expired together to span several 4 MiB
	// containers per shard, or the space figures would measure where the
	// container boundaries happened to fall for that seed.
	retireEvery int
	// burst is how many 64 KiB commits one iteration makes on the lone
	// session, and then on each of the two paired sessions.
	burst int
}

const (
	roundStreams = 8
	commitBytes  = 64 << 10
	// gcThreshold is shredderd's -gc-threshold default.
	gcThreshold = 0.5
)

// fastcdc is the engine every session negotiates.
func fastcdc() chunk.Spec { return chunk.FastCDCSpec(4 << 10) }

var workloads = []workload{
	{
		name:    "full-fastcdc",
		why:     "unique 32 MiB streams, raw wire, FastCDC: scan is cheap, so frame decode, chunk copy, SHA-256, shard put and container append carry the run",
		fsync:   persist.FsyncPolicy{Mode: persist.FsyncInterval},
		bulkMiB: 32, retireEvery: 1, burst: 150,
	},
	{
		name:      "snapshots-dedup",
		why:       "10%-changed 64 MiB snapshots over the dedup wire: client chunks and hashes, server pins, journals ref deltas and appends little; restore reads a deduplicated layout",
		dedupWire: true, snapshots: true,
		fsync:   persist.FsyncPolicy{Mode: persist.FsyncInterval},
		bulkMiB: 64, retireEvery: 1, burst: 150,
	},
	{
		name:  "small-commits",
		why:   "64 KiB streams under -fsync always with the 2 ms commit window: bytes are negligible, so WAL appends, group-commit barriers, fsyncs and round trips are everything",
		fsync: persist.FsyncPolicy{Mode: persist.FsyncAlways}, window: 2 * time.Millisecond,
		bulkMiB: 8, retireEvery: 4, burst: 150,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one reported metric. bound is the share of the
// parent commit's median an end-to-end metric may worsen by; per-layer
// metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
	why                string
}

// endToEnd is what a client of the service sees. Every workload
// reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "open the store, start the server, dial and negotiate, build the inputs, send the first stream through and back (median of 5 to 25 set-ups)"},
	{"ingest_mbps", "MB/s", "higher", 0.25, "logical 10^6 B/s of one bulk stream from Begin to the durable stats ack (median over streams)"},
	{"commit_lone_p50_ms", "ms", "lower", 0.25, "one session, 64 KiB streams over the raw wire: Begin to ack, median over all bursts"},
	{"commit_pair_p99_ms", "ms", "lower", 0.25, "two sessions at once, 64 KiB streams: Begin to ack, 99th percentile over both"},
	{"commit_pair_streams_per_s", "1/s", "higher", 0.25, "two sessions at once: streams acked per second of burst wall time"},
	{"disk_bytes_per_logical_byte", "ratio", "lower", 0.02, "data-directory bytes after Sync over logical bytes acked and not deleted, just before the first retention cycle (a count)"},
	{"disk_bytes_per_live_byte", "ratio", "lower", 0.04, "data-directory bytes over bytes the index references, after the first retention cycle expired the older half and compacted (a count)"},
}
