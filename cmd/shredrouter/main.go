// Command shredrouter scales the ingest service across a static
// cluster of shredderd nodes without changing the wire protocol.
// Ordinary clients (cmd/backupsim -server, any ingest.Session) connect
// to the router exactly as they would to a single daemon; every stream
// is split by chunk ownership on a consistent-hash ring and fanned out
// to the nodes behind the client's back.
//
// Ownership is by content: a chunk's SHA-256 fingerprint places it on
// the ring, and the owning node holds its body, index entry and
// reference counts. A stream becomes one dedup sub-stream per owner
// plus a fingerprint manifest on the stream's home node (under the
// reserved ".cluster/" namespace); restores re-interleave the
// sub-streams in manifest order and verify every chunk on the way
// through, deletes fan out to every node. See internal/cluster.
//
// The topology is static: -nodes "id=addr,..." on the command line or
// -topology pointing at a JSON file {"nodes": [{"id", "addr"}, ...]}.
// Node IDs place data on the ring — keep them stable across restarts
// and address changes, or chunks migrate out from under their node.
//
// Operability matches shredderd: -admin serves /metrics (per-node
// traffic, latency and liveness gauges), /healthz, /readyz, /statusz,
// /debug/traces and pprof; logging is structured; every client
// operation records a span tree, remote-parented under the client's
// trace when a protocol-v4 client sends one.
//
//	shredrouter -nodes "n0=host0:9323,n1=host1:9323" [-addr :9423]
//	            [-topology FILE] [-vnodes N] [-admin :7072]
//	            [-chunker rabin|fastcdc] [-avg KiB] [-minchunk KiB] [-maxchunk KiB]
//	            [-node-timeout D] [-node-retries N] [-node-idle N]
//	            [-trace-slow D] [-grace D] [-log-level L] [-log-json] [-quiet]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/cluster"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/stats"
)

func main() {
	addr := flag.String("addr", ":9423", "TCP listen address for client sessions")
	admin := flag.String("admin", ":7072", "admin HTTP address for /metrics, /healthz, /readyz, /statusz and pprof (empty: disabled)")
	nodes := flag.String("nodes", "", "comma-separated cluster topology: id=addr or bare addr entries")
	topoFile := flag.String("topology", "", "JSON topology file (alternative to -nodes)")
	vnodes := flag.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per physical node on the hash ring")
	chunkerName := flag.String("chunker", "", "chunking engine for clients that skip negotiation: rabin or fastcdc (empty: cluster default)")
	avgKiB := flag.Int("avg", 4, "target average chunk size in KiB (power of two)")
	minKiB := flag.Int("minchunk", 0, "minimum chunk size in KiB (0: engine default)")
	maxKiB := flag.Int("maxchunk", 0, "maximum chunk size in KiB (0: engine default; capped at one frame)")
	nodeTimeout := flag.Duration("node-timeout", ingest.DefaultDialTimeout, "per-attempt node connect timeout")
	nodeRetries := flag.Int("node-retries", 3, "total connect attempts per node before a stream fails")
	nodeIdle := flag.Int("node-idle", 4, "warm sessions kept per node between streams")
	traceSlow := flag.Duration("trace-slow", 0, "retain and log the span tree of any operation at or over this duration (0: keep recent traces only)")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for active client sessions")
	logLevel := flag.String("log-level", "info", "log floor: debug, info, warn or error")
	logJSON := flag.Bool("log-json", false, "emit JSON log lines instead of text")
	quiet := flag.Bool("quiet", false, "suppress per-stream logging (same as -log-level warn)")
	flag.Parse()

	logger, err := obs.NewLogger(*logLevel, *logJSON, *quiet)
	if err != nil {
		fatal(err)
	}

	var topo cluster.Topology
	switch {
	case *nodes != "" && *topoFile != "":
		fatal(errors.New("-nodes and -topology are mutually exclusive"))
	case *nodes != "":
		topo, err = cluster.ParseNodes(*nodes)
	case *topoFile != "":
		topo, err = cluster.LoadTopology(*topoFile)
	default:
		fatal(errors.New("a topology is required: -nodes or -topology"))
	}
	if err != nil {
		fatal(err)
	}

	reg := obs.NewRegistry()
	bi := obs.RegisterBuildInfo(reg)
	tracer := obs.NewDaemonTracer(*traceSlow, logger)

	spec := cluster.DefaultSpec()
	if *chunkerName != "" {
		spec, err = chunk.SpecFromSizes(*chunkerName, *avgKiB<<10, *minKiB<<10, *maxKiB<<10)
		if err != nil {
			fatal(err)
		}
	}
	c, err := cluster.New(cluster.Config{
		Topology: topo,
		Vnodes:   *vnodes,
		Spec:     spec,
		Dial: ingest.DialOptions{
			Timeout:  *nodeTimeout,
			Attempts: *nodeRetries,
		},
		MaxIdlePerNode: *nodeIdle,
		Obs:            reg,
		Tracer:         tracer,
		Logger:         logger,
	})
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	router := cluster.NewRouter(c, 0)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	adm := obs.NewAdmin(reg, func(w io.Writer) {
		fmt.Fprintf(w, "build %s (go %s, rev %s)\n", bi.Version, bi.GoVersion, bi.Revision)
		fmt.Fprintf(w, "listen %s\n", l.Addr())
		fmt.Fprintf(w, "nodes %d (vnodes %d each)\n", c.Ring().Len(), *vnodes)
		for i := 0; i < c.Ring().Len(); i++ {
			n := c.Ring().Node(i)
			fmt.Fprintf(w, "  node %s at %s\n", n.ID, n.Addr)
		}
		cspec := c.Spec()
		fmt.Fprintf(w, "default engine %s (min %s, max %s)\n", cspec.Algo,
			fmtBytes(int64(cspec.MinSize)), fmtBytes(int64(cspec.MaxSize)))
	})
	adm.SetTracer(tracer)
	stopAdmin, err := adm.Serve(*admin, logger)
	if err != nil {
		fatal(err)
	}
	adm.DrainOnSignal(l, logger)

	logger.Info("routing", "addr", l.Addr().String(), "nodes", c.Ring().Len(),
		"vnodes", *vnodes, "engine", spec.Algo.String())
	if err := router.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
		fatal(err)
	}
	router.Shutdown(*grace)
	stopAdmin()
	logger.Info("shut down cleanly")
}

func fmtBytes(n int64) string { return stats.Bytes(n) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shredrouter:", err)
	os.Exit(1)
}
