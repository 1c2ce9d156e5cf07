package shredder

import (
	"testing"

	"shredder/internal/chunker"
	"shredder/internal/core"
	"shredder/internal/gpu"
	"shredder/internal/redelim"
	"shredder/internal/workload"
)

// Ablation benchmarks isolate each design decision of the paper: the
// three pipeline optimizations, the kernel micro-optimizations
// (§5.2.2), the allocator strategy (§5.1), and the future-work
// extensions (multi-GPU, GPUDirect, redundancy elimination). Each benchmark reports the *simulated* throughput of
// the configuration as a custom metric alongside the usual wall-clock
// numbers.

func ablationShredder(b *testing.B, mutate func(*core.Config)) *core.Shredder {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.BufferSize = 16 << 20
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchPipeline(b *testing.B, mutate func(*core.Config)) {
	s := ablationShredder(b, mutate)
	data := workload.Random(1, 64<<20)
	b.SetBytes(int64(len(data)))
	var simGBps float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := s.ChunkBytes(data, nil)
		if err != nil {
			b.Fatal(err)
		}
		simGBps = rep.Throughput / 1e9
	}
	b.ReportMetric(simGBps, "simGB/s")
}

// BenchmarkAblationBasic is the §3.1 unoptimized pipeline.
func BenchmarkAblationBasic(b *testing.B) {
	benchPipeline(b, func(c *core.Config) { c.Mode = core.Basic })
}

// BenchmarkAblationStreams adds double buffering + the 4-stage
// pipeline (§4.1–4.2).
func BenchmarkAblationStreams(b *testing.B) {
	benchPipeline(b, func(c *core.Config) { c.Mode = core.Streams })
}

// BenchmarkAblationStreamsCoalesced adds memory coalescing (§4.3).
func BenchmarkAblationStreamsCoalesced(b *testing.B) {
	benchPipeline(b, func(c *core.Config) { c.Mode = core.StreamsCoalesced })
}

// BenchmarkAblationPipelineDepth2 restricts the pipeline to two
// admitted buffers (the 2-staged case of Figure 9).
func BenchmarkAblationPipelineDepth2(b *testing.B) {
	benchPipeline(b, func(c *core.Config) {
		c.Mode = core.Streams
		c.PipelineDepth = 2
		c.RingRegions = 2
	})
}

// BenchmarkAblationTwoGPUs splits buffers across two devices (§5.2).
func BenchmarkAblationTwoGPUs(b *testing.B) {
	benchPipeline(b, func(c *core.Config) {
		c.Mode = core.Streams
		c.Devices = 2
		c.PipelineDepth = 8
		c.RingRegions = 8
	})
}

// BenchmarkAblationGPUDirect removes the host staging transfer (§9).
func BenchmarkAblationGPUDirect(b *testing.B) {
	benchPipeline(b, func(c *core.Config) { c.GPUDirect = true })
}

// BenchmarkAblationNoUnrolling disables the §5.2.2 loop-unrolling
// kernel optimization.
func BenchmarkAblationNoUnrolling(b *testing.B) {
	benchPipeline(b, func(c *core.Config) { c.Kernel.UnrolledFingerprint = false })
}

// BenchmarkAblationNoDivergenceOpt disables the §5.2.2 warp-divergence
// restructuring.
func BenchmarkAblationNoDivergenceOpt(b *testing.B) {
	benchPipeline(b, func(c *core.Config) { c.Kernel.DivergenceOptimized = false })
}

// BenchmarkAblationKernelNaiveVsCoalesced reports the raw kernel-model
// ratio (Figure 11's mechanism) without the pipeline around it.
func BenchmarkAblationKernelNaiveVsCoalesced(b *testing.B) {
	chk, err := chunker.New(chunker.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	k, err := gpu.NewKernel(gpu.DefaultKernelConfig(), chk)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		n := int64(256 << 20)
		ratio = k.EstimateTime(n, gpu.NaiveGlobal).Seconds() / k.EstimateTime(n, gpu.Coalesced).Seconds()
	}
	b.ReportMetric(ratio, "coalescing-x")
}

// BenchmarkAblationChunkerSchemes compares real (wall-clock) single-
// thread throughput of the three chunking schemes at ~4 KB targets:
// Rabin CDC, SampleByte sampling, and fixed-size splitting.
func BenchmarkAblationChunkerSchemes(b *testing.B) {
	data := workload.Random(2, 8<<20)
	p := chunker.DefaultParams()
	p.MaskBits = 12
	p.Marker = 1<<12 - 1
	rab, err := chunker.New(p)
	if err != nil {
		b.Fatal(err)
	}
	sam, err := chunker.NewSampleByte(chunker.SampleByteParams{MarkedBytes: 1, SkipAfterMatch: 2048, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rabin", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			rab.Split(data)
		}
	})
	b.Run("samplebyte", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			sam.Split(data)
		}
	})
	b.Run("fixed", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			chunker.FixedSplit(data, 4096)
		}
	})
}

// BenchmarkAblationRedundancyElimination measures the middlebox
// encode/decode path on a stream with 50% retransmissions.
func BenchmarkAblationRedundancyElimination(b *testing.B) {
	p := chunker.DefaultParams()
	p.MaskBits = 11
	p.Marker = 1<<11 - 1
	p.MinSize = 256
	p.MaxSize = 8 << 10
	sender, receiver, err := redelim.NewPair(p, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	payloads := [][]byte{
		workload.Random(4, 256<<10),
		workload.Random(5, 256<<10),
	}
	// Warm the caches so every timed iteration exercises the
	// redundancy-elimination (reference) path.
	for _, pl := range payloads {
		if _, err := receiver.Decode(sender.Encode(pl)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(payloads[0]) * 2))
	var savings float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pl := range payloads {
			msgs := sender.Encode(pl)
			if _, err := receiver.Decode(msgs); err != nil {
				b.Fatal(err)
			}
		}
		savings = sender.Stats().Savings()
	}
	b.ReportMetric(savings*100, "saved%")
}
