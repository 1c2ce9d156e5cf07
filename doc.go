// Package shredder is a Go reproduction of "Shredder: GPU-Accelerated
// Incremental Storage and Computation" (Bhatotia, Rodrigues & Verma,
// FAST 2012): a high-throughput content-based chunking framework for
// incremental storage and computation systems.
//
// The implementation lives under internal/:
//
//   - internal/rabin, internal/chunker — Rabin fingerprinting and the
//     sequential content-defined chunking reference
//   - internal/chunk — the algorithm-agnostic chunking-engine API: a
//     serializable, wire-encodable Spec (algorithm + parameters) and an
//     Engine interface whose one cutting primitive is the Scanner —
//     per-stream state holding a cursor, never the bytes, that cuts a
//     buffer the caller owns in place; whole-buffer Split and the
//     incremental Stream feed are built on it. A Rabin engine (held
//     byte-for-byte to internal/chunker by differential tests) and a
//     FastCDC engine (gear hashing, normalized chunking); chunk
//     boundaries are pinned by golden vectors
//   - internal/gpu, internal/pcie, internal/hostmem, internal/host,
//     internal/sim — the simulated device/host substrate (this machine
//     has no GPU: boundaries and hashes are computed for real, only
//     device, PCIe and SAN timing is modelled)
//   - internal/core — the Shredder pipeline itself, in simulated time
//     (the paper reproduction uses it; the live service does not);
//     with HostWorkers set it chunks on many cores via chunk.Parallel
//     (region scans with window warmup, seam fixup, byte-identical
//     output — the paper's multicore baseline, lifted onto the engine
//     API)
//   - internal/dedup — the single-goroutine reference dedup store
//   - internal/shardstore — the sharded, lock-striped, concurrency-safe
//     chunk store (byte-identical ingest semantics to internal/dedup,
//     asserted differentially), with a pluggable backing: in-memory by
//     default, durable via internal/persist. Every put, pin and
//     release goes through one batch mutator (Store.mutate: partition
//     by shard, stripe lock, journal a ±1 delta or append the chunk,
//     one Commit per shard). Fully content-addressed:
//     recipes are fingerprint lists resolved through the index at
//     restore time, DeleteRecipe releases a recipe's references (and
//     drops zero-refcount chunks), and Compact rewrites mostly-dead
//     containers so reclaimed bytes actually return to the OS
//   - internal/persist — the durable backing: per-shard append-only
//     container files plus a length+CRC-framed write-ahead log
//     (inserts, refcount deltas, compaction relocations), a recipe
//     journal with tombstones and self-compaction — both logs one
//     journal type, every rewritten file (checkpoint, recipe-log
//     compaction, MANIFEST) through one tmp + fsync + rename + dir-sync
//     step — configurable fsync policy, and crash-recoverable replay
//     that tolerates a torn final record; the bytes on disk are pinned
//     by a checked-in golden store. Deletion and compaction are
//     exactly as crash-safe as ingest: tombstone before release, moved
//     copies before the WAL checkpoint, checkpoint (atomic rename)
//     before unlink — a battery of byte-granular truncation tests pins
//     each window
//   - internal/ingest — the streaming ingest service layer: a
//     length-prefixed binary protocol over net.Conn with per-session
//     negotiation of protocol version and chunking engine
//     (Hello/Accept frames carrying a chunk.Spec; non-negotiating
//     legacy clients keep the Rabin defaults byte-for-byte), typed
//     protocol errors, a server that reads raw client streams into
//     pooled segment buffers, has the session's chunk.Engine cut them
//     where they lie and dedups the chunks in batches against one
//     shared shardstore, and the matching client Session. Protocol
//     version 3
//     adds two-phase content-addressed ingest — the client chunks
//     locally, ships HasBatch fingerprint frames, and uploads only
//     the bodies the server's NeedBatch answer reports missing, the
//     server pinning every skipped chunk's refcount under the shard
//     lock inside the lookup — with per-stream WireStats measuring
//     the bytes the backup-site link was spared. The client end of it
//     (Session.BackupDedup) is the paper's staged pipeline: a
//     read+scan goroutine over pooled segment buffers, hash workers,
//     and the wire stage running round N while round N+1 is cut and
//     fingerprinted, chunk bodies sent as views into the segments
//   - internal/cluster — multi-node scale-out over the unchanged wire
//     protocol: a consistent-hash ring (virtual nodes over a 64-bit
//     key space; a chunk's fingerprint prefix is its ring key, so
//     placement needs no extra hashing) assigns every chunk to an
//     owner node, and a routed stream becomes one v3 dedup sub-stream
//     per owner — fanned out concurrently — plus a fingerprint
//     manifest committed last on the stream's name-hash home node
//     (under the reserved ".cluster/" namespace). Restores
//     re-interleave per-owner streams in manifest order, verifying
//     each chunk's fingerprint; deletes fan out as node-owned
//     refcount decrements, so single-node GC is untouched. The
//     router is internal/ingest's wire front end over the cluster as
//     its back end — the protocol state machine exists once — with
//     pooled per-node sessions with dial retry, per-node metrics and
//     remote-parented spans behind it
//   - internal/hdfs, internal/mapreduce, internal/backup — the two
//     case studies (Inc-HDFS + Incoop, cloud backup); backup.Service
//     runs the multi-VM experiment through the service path
//   - internal/experiments — regenerates every table and figure
//
// The cmd/shredderd binary serves the ingest protocol over TCP (with
// -data it is durable and restartable; SIGTERM drains and flushes;
// -dedup-wire=false caps sessions at protocol v2; -gc-interval/
// -gc-threshold run background container compaction for retention
// churn) and cmd/backupsim -server is its client (-data instead runs
// the restart round-trip locally; -dedup-wire switches either mode to
// client-side matching; -retention runs the expire-oldest/compact
// scenario and enforces the 1.5x space-amplification bound; -cluster N
// boots an in-process routed cluster). Performance is measured by the
// bench/ module (BENCHMARK.json), not by these scenario drivers.
// cmd/shredrouter serves the same client protocol — the same
// ingest.Frontend, over a cluster instead of a store — in front of a
// static N-node topology, routing streams by chunk ownership on the
// internal/cluster ring.
//
// The store's invariants are enforced mechanically: tools/shredlint
// (its own dependency-free module) is a custom static-analysis suite
// — durability ordering, stripe-lock discipline, nil-tolerant
// instrumentation, wire-codec symmetry, error hygiene — that CI runs
// as a hard gate alongside build and test; see tools/shredlint/README
// for the rules and the //lint:allow suppression syntax. The
// benchmarks in bench_test.go
// wrap internal/experiments so that `go test -bench=.` reproduces the
// paper's entire evaluation; the cmd/papertables binary prints the same
// tables interactively.
package shredder
