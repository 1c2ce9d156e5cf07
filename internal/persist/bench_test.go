package persist

import (
	"fmt"
	"testing"
)

// buildDataDir populates a data directory with a deduplicating chunk
// series plus recipes, then closes it — the fixture every recovery
// benchmark reopens.
func buildDataDir(b *testing.B, dir string, shards int, size int) {
	b.Helper()
	st, err := OpenStore(dir, Options{Shards: shards, Fsync: FsyncPolicy{Mode: FsyncNever}})
	if err != nil {
		b.Fatal(err)
	}
	chunks := corpus(b, 77, size, 2)
	recipe, err := writeStream(st, chunks)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.CommitRecipe("bench-stream", recipe); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecover measures a cold Open of an existing data directory:
// WAL replay, container validation and index rebuild across shard
// counts. The metric that matters operationally is restart time per
// stored byte.
func BenchmarkRecover(b *testing.B) {
	for _, shards := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			dir := b.TempDir()
			const size = 4 << 20
			buildDataDir(b, dir, shards, size)
			b.SetBytes(size * 3) // master + two snapshots of logical data replayed
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := OpenStore(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if st.Stats().UniqueChunks == 0 {
					b.Fatal("recovered nothing")
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPutBatchDurable measures the durable ingest hot path under
// each fsync policy, next to the in-memory baseline from the
// shardstore benchmarks.
func BenchmarkPutBatchDurable(b *testing.B) {
	for _, pol := range []FsyncPolicy{{Mode: FsyncNever}, {Mode: FsyncInterval, Interval: DefaultFsyncInterval}, {Mode: FsyncAlways}} {
		b.Run("fsync="+pol.String(), func(b *testing.B) {
			st, err := OpenStore(b.TempDir(), Options{Shards: 16, Fsync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			chunks := corpus(b, 13, 1<<20, 0)
			var total int64
			for _, c := range chunks {
				total += int64(len(c))
			}
			b.SetBytes(total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := putBatch(st, chunks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
