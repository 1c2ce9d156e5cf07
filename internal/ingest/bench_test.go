package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/workload"
)

// BenchmarkIngestThroughput streams concurrent client sessions into one
// server over in-memory pipes, varying the store's shard count: the
// contention knob this subsystem exists to turn. Bytes/op is the
// aggregate client payload.
func BenchmarkIngestThroughput(b *testing.B) {
	const sessions = 4
	const imageSize = 2 << 20
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("sessions=%d/shards=%d", sessions, shards), func(b *testing.B) {
			srv, err := NewServer(testConfig(shards))
			if err != nil {
				b.Fatal(err)
			}
			golden := workload.NewImage(1, imageSize, 64<<10, 0.1)
			images := make([][]byte, sessions)
			clients := make([]*Session, sessions)
			for i := range images {
				images[i] = golden.Snapshot(int64(i))
				clients[i] = startSession(b, srv)
			}
			b.SetBytes(int64(sessions * imageSize))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var wg sync.WaitGroup
				for i := 0; i < sessions; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						name := fmt.Sprintf("s%d-i%d", i, n)
						if _, err := clients[i].BackupBytes(name, images[i]); err != nil {
							b.Error(err)
						}
					}(i)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkIngestSingleStream is the uncontended baseline: one session,
// one stream at a time.
func BenchmarkIngestSingleStream(b *testing.B) {
	srv, err := NewServer(testConfig(16))
	if err != nil {
		b.Fatal(err)
	}
	img := workload.Random(9, 4<<20)
	c := startSession(b, srv)
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := c.BackupBytes(fmt.Sprintf("i%d", n), img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestChunkers is the Rabin-vs-FastCDC number on the
// trajectory: one session streaming 4 MB images through the full
// service path (frames, chunking pipeline, batched dedup, durable-less
// store), per negotiated engine. The chunking engine is the only
// variable.
func BenchmarkIngestChunkers(b *testing.B) {
	const imageSize = 4 << 20
	for _, tc := range []struct {
		name string
		spec chunk.Spec
	}{
		{"rabin", chunk.Spec{}}, // zero spec: skip negotiation, server default
		{"fastcdc", chunk.FastCDCSpec(4 << 10)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			srv, err := NewServer(testConfig(16))
			if err != nil {
				b.Fatal(err)
			}
			c := startSession(b, srv)
			if tc.spec.Algo != 0 {
				if _, err := c.Negotiate(tc.spec); err != nil {
					b.Fatal(err)
				}
			}
			img := workload.Random(77, imageSize)
			b.SetBytes(imageSize)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, err := c.BackupBytes(fmt.Sprintf("i%d", n), img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackupSmall and BenchmarkBackupDedupSmall are what a stream
// too small to overlap anything costs on each wire: one session sending
// fresh 64 KiB streams (FastCDC, every 512-byte block stamped with a
// counter) over net.Pipe to an in-process server on a memory store, at
// GOMAXPROCS 2 — where a hand-off between goroutines wakes the second P.
// The chunking pipeline runs on the server for Backup and on the client
// for BackupDedup; in neither does a stream this size start a goroutine.
func BenchmarkBackupSmall(b *testing.B)      { benchSmallStream(b, false) }
func BenchmarkBackupDedupSmall(b *testing.B) { benchSmallStream(b, true) }

func benchSmallStream(b *testing.B, dedupWire bool) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const size = 64 << 10
	img := workload.Random(55, size)
	var c *Session
	// connect starts over on an empty store: a memory store only grows.
	connect := func() {
		if c != nil {
			_ = c.Close()
		}
		srv, err := NewServer(testConfig(16))
		if err != nil {
			b.Fatal(err)
		}
		c = startSession(b, srv)
		if dedupWire {
			_, err = c.NegotiateDedup(chunk.FastCDCSpec(4 << 10))
		} else {
			_, err = c.Negotiate(chunk.FastCDCSpec(4 << 10))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	connect()
	var stamp uint64
	rd := bytes.NewReader(nil)
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if n%4096 == 4095 {
			b.StopTimer()
			connect()
			b.StartTimer()
		}
		for off := 0; off < size; off += 512 {
			stamp++
			binary.LittleEndian.PutUint64(img[off:], stamp)
		}
		rd.Reset(img)
		var st *StreamStats
		var err error
		if dedupWire {
			st, err = c.BackupDedup(fmt.Sprintf("i%d", n), rd)
		} else {
			st, err = c.Backup(fmt.Sprintf("i%d", n), rd)
		}
		if err != nil {
			b.Fatal(err)
		}
		if st.Bytes != size {
			b.Fatalf("server acked %d of %d bytes", st.Bytes, size)
		}
	}
}

// BenchmarkBackupDedup is the dedup client end to end: one session over
// loopback TCP against an in-process server on a memory store, FastCDC.
// Every iteration sends a stream in which the stated share repeats
// content the server holds (every 512-byte block of the rest is stamped
// with a counter, so no fresh chunk ever repeats). MB/s is logical
// bytes; B/op and allocs/op cover both ends of the connection, the
// server being in this process. The 64 KiB case is what a pipeline
// costs a stream too small to overlap anything.
func BenchmarkBackupDedup(b *testing.B) {
	for _, tc := range []struct {
		name  string
		size  int
		fresh int // bytes of the stream that are new each iteration
	}{
		{"16MiB/dup0", 16 << 20, 16 << 20},
		{"16MiB/dup90", 16 << 20, 16 << 20 / 10},
		{"64KiB/dup0", 64 << 10, 64 << 10},
	} {
		b.Run(tc.name, func(b *testing.B) {
			img := workload.Random(33, tc.size)
			var (
				ln     net.Listener
				c      *Session
				stored int
				stamp  uint64
			)
			// connect starts a fresh server holding img. The memory store
			// only grows, so the benchmark starts over on a new one now
			// and then, off the clock.
			connect := func() {
				if c != nil {
					_ = c.Close()
					_ = ln.Close()
				}
				srv, err := NewServer(testConfig(16))
				if err != nil {
					b.Fatal(err)
				}
				if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				go func() { _ = srv.Serve(ln) }()
				if c, err = Dial(ln.Addr().String()); err != nil {
					b.Fatal(err)
				}
				if _, err := c.NegotiateDedup(chunk.FastCDCSpec(4 << 10)); err != nil {
					b.Fatal(err)
				}
				if _, err := c.BackupDedupBytes("base", img); err != nil {
					b.Fatal(err)
				}
				stored = 0
			}
			connect()
			defer func() {
				_ = c.Close()
				_ = ln.Close()
			}()
			rd := bytes.NewReader(nil)
			b.SetBytes(int64(tc.size))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if stored > 192<<20 {
					b.StopTimer()
					connect()
					b.StartTimer()
				}
				for off := 0; off < tc.fresh; off += 512 {
					stamp++
					binary.LittleEndian.PutUint64(img[off:], stamp)
				}
				stored += tc.fresh
				rd.Reset(img)
				st, err := c.BackupDedup(fmt.Sprintf("i%d", n), rd)
				if err != nil {
					b.Fatal(err)
				}
				if st.Bytes != int64(tc.size) {
					b.Fatalf("server acked %d of %d bytes", st.Bytes, tc.size)
				}
			}
		})
	}
}
