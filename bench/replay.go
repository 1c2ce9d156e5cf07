package main

import (
	"bytes"
	"crypto/sha256"
	"os"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/core"
	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/persist"
	"shredder/internal/shardstore"
)

// Stage replay: after a traced run, each layer's public function is
// called alone, on one goroutine, over the workload's first bulk
// stream. Rates are 10^6 units per second.

func perSecond(units float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return units / d.Seconds() / 1e6
}

// replayFrameCodec pushes data through WriteFrame and ReadFrame in the
// 1 MiB frames a client cuts.
func replayFrameCodec(data []byte) (mbps float64, err error) {
	var wire bytes.Buffer
	wire.Grow(ingest.DefaultFrameSize + 16)
	var buf []byte
	t0 := time.Now()
	for off := 0; off < len(data); off += ingest.DefaultFrameSize {
		end := min(off+ingest.DefaultFrameSize, len(data))
		wire.Reset()
		if err := ingest.WriteFrame(&wire, ingest.MsgData, data[off:end]); err != nil {
			return 0, err
		}
		_, payload, err := ingest.ReadFrame(&wire, buf)
		if err != nil {
			return 0, err
		}
		buf = payload[:cap(payload)]
	}
	return perSecond(float64(len(data)), time.Since(t0)), nil
}

// replayEngine times an engine's one-shot Split and its streaming feed
// in 1 MiB writes, the way the server's frame reader feeds it.
func replayEngine(spec chunk.Spec, data []byte) (splitMBps, streamMBps float64, err error) {
	eng, err := chunk.New(spec)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	eng.Split(data)
	splitMBps = perSecond(float64(len(data)), time.Since(t0))

	st := eng.Stream(func(chunk.Chunk, []byte) error { return nil })
	t0 = time.Now()
	for off := 0; off < len(data); off += ingest.DefaultFrameSize {
		if _, err := st.Write(data[off:min(off+ingest.DefaultFrameSize, len(data))]); err != nil {
			return 0, 0, err
		}
	}
	if err := st.Close(); err != nil {
		return 0, 0, err
	}
	return splitMBps, perSecond(float64(len(data)), time.Since(t0)), nil
}

// replayChunkReader runs the server's own per-session pipeline
// (core.Shredder, as ingest.Server builds it) over the stream and
// returns the chunks it cut.
func replayChunkReader(cfg core.Config, data []byte) (mbps float64, chunks [][]byte, err error) {
	shred, err := core.New(cfg)
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	if _, err := shred.ChunkReader(bytes.NewReader(data), func(chunk.Chunk, []byte) error { return nil }); err != nil {
		return 0, nil, err
	}
	mbps = perSecond(float64(len(data)), time.Since(t0))
	// Cut again to keep the chunks: views into data, no copies.
	eng, err := chunk.New(cfg.Chunking)
	if err != nil {
		return 0, nil, err
	}
	for _, c := range eng.Split(data) {
		chunks = append(chunks, data[c.Offset:c.End()])
	}
	return mbps, chunks, nil
}

func replaySum(chunks [][]byte) (mbps float64, hs []shardstore.Hash) {
	hs = make([]shardstore.Hash, len(chunks))
	var n int
	t0 := time.Now()
	for i, c := range chunks {
		hs[i] = dedup.Sum(c)
		n += len(c)
	}
	return perSecond(float64(n), time.Since(t0)), hs
}

// putBatches feeds the chunks to the store in the server's batch size.
func putBatches(st *shardstore.Store, hs []shardstore.Hash, chunks [][]byte, batch int) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < len(chunks); i += batch {
		j := min(i+batch, len(chunks))
		if _, _, err := st.PutHashedBatch(hs[i:j], chunks[i:j]); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

type storeReplay struct {
	putUniqueMBps, putDupMops, pinMops, missingMops float64
}

// replayMemoryStore times the sharded index alone, on MemoryBacking:
// unique puts, the same puts again (all duplicate hits), then the
// dedup wire's PinBatch and Missing in its 256-fingerprint rounds.
func replayMemoryStore(hs []shardstore.Hash, chunks [][]byte, shards, batch int) (storeReplay, error) {
	var out storeReplay
	st, err := shardstore.New(shards, 0)
	if err != nil {
		return out, err
	}
	var n int
	for _, c := range chunks {
		n += len(c)
	}
	d, err := putBatches(st, hs, chunks, batch)
	if err != nil {
		return out, err
	}
	out.putUniqueMBps = perSecond(float64(n), d)
	if d, err = putBatches(st, hs, chunks, batch); err != nil {
		return out, err
	}
	out.putDupMops = perSecond(float64(len(chunks)), d)

	const round = 256
	t0 := time.Now()
	for i := 0; i < len(hs); i += round {
		if _, _, err := st.PinBatch(hs[i:min(i+round, len(hs))]); err != nil {
			return out, err
		}
	}
	out.pinMops = perSecond(float64(len(hs)), time.Since(t0))
	t0 = time.Now()
	for i := 0; i < len(hs); i += round {
		st.Missing(hs[i:min(i+round, len(hs))])
	}
	out.missingMops = perSecond(float64(len(hs)), time.Since(t0))
	return out, nil
}

// replayPersistPut times unique puts into a fresh durable store opened
// with the workload's own fsync policy, in a scratch directory beside
// the run's data directory.
func replayPersistPut(dataRoot string, opts persist.Options, hs []shardstore.Hash, chunks [][]byte, batch int) (mbps float64, err error) {
	dir, err := os.MkdirTemp(dataRoot, "shredbench-replay-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	opts.Obs = nil
	st, err := persist.OpenStore(dir, opts)
	if err != nil {
		return 0, err
	}
	var n int
	for _, c := range chunks {
		n += len(c)
	}
	d, err := putBatches(st, hs, chunks, batch)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return perSecond(float64(n), d), err
}

// replayGet reads a recipe back chunk by chunk, the way the restore
// handler does.
func replayGet(st *shardstore.Store, r shardstore.Recipe) (mbps float64, err error) {
	var n int
	t0 := time.Now()
	for _, h := range r {
		data, ok, err := st.GetByHash(h)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		n += len(data)
	}
	return perSecond(float64(n), time.Since(t0)), nil
}

// layers is what the stage replay and the two reopens measure.
type layers struct {
	frameCodec               float64
	fcSplit, fcStream        float64
	rbSplit, rbStream        float64
	chunkReader, sum         float64
	mem                      storeReplay
	persistPut, get          float64
	recoverS, recoverVerifyS float64
	err                      error
}

// replay runs each layer alone over the first live bulk stream. It
// needs the store still open (for the read replay).
func (r *run) replay() *layers {
	l := &layers{}
	if len(r.bulk) == 0 {
		return l
	}
	defer func() { r.op(l.err) }()
	first := r.bulk[0]
	data := r.e.chk.load(first.idx)
	cfg := ingest.DefaultConfig()
	fail := func(err error) bool {
		if err != nil && l.err == nil {
			l.err = err
		}
		return err != nil
	}
	var err error
	l.frameCodec, err = replayFrameCodec(data)
	fail(err)
	l.fcSplit, l.fcStream, err = replayEngine(fastcdc(), data)
	fail(err)
	l.rbSplit, l.rbStream, err = replayEngine(cfg.Shredder.Chunking, data)
	fail(err)
	cfg.Shredder.Chunking = fastcdc() // what the sessions negotiated
	var chunks [][]byte
	l.chunkReader, chunks, err = replayChunkReader(cfg.Shredder, data)
	if fail(err) {
		return l
	}
	var hs []shardstore.Hash
	l.sum, hs = replaySum(chunks)
	l.mem, err = replayMemoryStore(hs, chunks, cfg.Shards, cfg.BatchSize)
	fail(err)
	l.persistPut, err = replayPersistPut(r.p.dataRoot, r.p.persistOptions(), hs, chunks, cfg.BatchSize)
	fail(err)
	if recipe, ok := r.e.store.Recipe(first.name); ok {
		l.get, err = replayGet(r.e.store, recipe)
		fail(err)
	}
	return l
}

// Calibration probes: what this machine does on one core right now,
// with no code of the repository involved. A disturbed machine shows as
// a difference between the probe before and the probe after the run.
type probes struct {
	src, dst []byte
	sink     byte
}

func newProbes() *probes {
	return &probes{src: make([]byte, 8<<20), dst: make([]byte, 8<<20)}
}

// warmUp keeps one core busy for a moment. A process started on an
// idle sandbox runs at roughly half speed for its first tens of
// milliseconds; without this the first set-up and the "before" probes
// would measure that ramp.
func (p *probes) warmUp() {
	for t0 := time.Now(); time.Since(t0) < 250*time.Millisecond; {
		p.sha()
		p.memmove() // also the first touch of dst, which is not the machine's speed
	}
}

func (p *probes) sha() float64 {
	const passes = 8
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		h := sha256.Sum256(p.src)
		p.sink ^= h[0]
	}
	return perSecond(float64(passes*len(p.src)), time.Since(t0))
}

func (p *probes) memmove() float64 {
	const passes = 32
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		copy(p.dst, p.src)
	}
	return perSecond(float64(passes*len(p.src)), time.Since(t0))
}
