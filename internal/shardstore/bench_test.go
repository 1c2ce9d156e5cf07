package shardstore

import (
	"fmt"
	"sync"
	"testing"

	"shredder/internal/dedup"
	"shredder/internal/workload"
)

// benchChunks pre-cuts a pool of 4 KB pseudo-chunks; half the pool is
// re-used across goroutines so the benchmark exercises both the insert
// and the duplicate-hit path.
func benchChunks(n int) [][]byte {
	data := workload.Random(1, n*4096)
	out := make([][]byte, n)
	for i := range out {
		out[i] = data[i*4096 : (i+1)*4096]
	}
	return out
}

// runParallelPut measures Put throughput with g goroutines sharing one
// store, each walking the chunk pool from its own phase offset.
func runParallelPut(b *testing.B, store *Store, g int) {
	chunks := benchChunks(4096)
	b.SetBytes(4096)
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / g
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			off := w * len(chunks) / g
			for i := 0; i < per; i++ {
				put(store, chunks[(off+i)%len(chunks)])
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkShardstorePut measures concurrent Put throughput across
// goroutine counts and shard counts — the scaling claim of this
// package. The 1-goroutine, 1-shard row is the dedup.Store-equivalent
// baseline.
func BenchmarkShardstorePut(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		for _, shards := range []int{1, 16, 256} {
			b.Run(fmt.Sprintf("goroutines=%d/shards=%d", g, shards), func(b *testing.B) {
				store, err := New(shards, 0)
				if err != nil {
					b.Fatal(err)
				}
				runParallelPut(b, store, g)
			})
		}
	}
}

// BenchmarkShardstoreHas measures concurrent index lookups against a
// populated store.
func BenchmarkShardstoreHas(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			store, err := New(64, 0)
			if err != nil {
				b.Fatal(err)
			}
			chunks := benchChunks(4096)
			hashes := make([]Hash, len(chunks))
			for i, c := range chunks {
				put(store, c)
				hashes[i] = dedup.Sum(c)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / g
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					off := w * len(hashes) / g
					for i := 0; i < per; i++ {
						if _, ok := store.Has(hashes[(off+i)%len(hashes)]); !ok {
							b.Error("lookup missed a stored hash")
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkShardstorePutBatch measures the batched insert path the
// ingest server uses.
func BenchmarkShardstorePutBatch(b *testing.B) {
	for _, batch := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			store, err := New(64, 0)
			if err != nil {
				b.Fatal(err)
			}
			chunks := benchChunks(4096)
			b.SetBytes(int64(batch) * 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * batch) % (len(chunks) - batch)
				putBatch(store, chunks[off:off+batch])
			}
		})
	}
}
