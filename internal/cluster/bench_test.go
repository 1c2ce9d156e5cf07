package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/ingest"
	"shredder/internal/persist"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// BenchmarkRoutedBackup is the cluster's locally chunked path end to end:
// a raw RoutedSession.Backup of a 32 MiB stream (FastCDC 4 KiB) over
// nodes on loopback TCP. "mem" is three nodes on memory stores;
// "persist" three on persist stores under FsyncAlways with group commit,
// in a directory under /dev/shm (the temp dir where there is none).
// "slow" and "six" are the shapes in which a batch waits on its slowest
// owner or splits into small shares: "mem" with node 0 behind a link
// that delays every read 1 ms each way, and six memory nodes. Every
// 512-byte block of the stream is stamped with a counter before each
// iteration, off the clock, so every chunk is new. MB/s is logical bytes.
func BenchmarkRoutedBackup(b *testing.B) {
	const size = 32 << 20
	for _, bc := range []struct {
		name    string
		nodes   int
		durable bool
		delay   time.Duration // each way, on node 0's link
	}{
		{"mem", 3, false, 0},
		{"persist", 3, true, 0},
		{"slow", 3, false, time.Millisecond},
		{"six", 6, false, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var (
				nodes  *benchNodes
				c      *Cluster
				stored int
				stamp  uint64
			)
			// start brings up a fresh cluster: the stores only grow, so the
			// benchmark starts over now and then, off the clock.
			start := func() {
				if nodes != nil {
					c.Close()
					nodes.stop(b)
				}
				nodes = startBenchNodes(b, bc.nodes, bc.durable, bc.delay)
				var err error
				if c, err = New(Config{Topology: nodes.topo, Spec: chunk.FastCDCSpec(4 << 10)}); err != nil {
					b.Fatal(err)
				}
				stored = 0
			}
			start()
			defer func() {
				c.Close()
				nodes.stop(b)
			}()
			rs := c.NewSession()
			img := workload.Random(21, size)
			rd := bytes.NewReader(nil)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				if stored >= 128<<20 {
					start()
					rs = c.NewSession()
				}
				for off := 0; off < size; off += 512 {
					stamp++
					binary.LittleEndian.PutUint64(img[off:], stamp)
				}
				rd.Reset(img)
				stored += size
				b.StartTimer()
				st, err := rs.Backup(fmt.Sprintf("i%d", n), rd)
				if err != nil {
					b.Fatal(err)
				}
				if st.Bytes != size {
					b.Fatalf("cluster acked %d of %d bytes", st.Bytes, size)
				}
			}
		})
	}
}

// benchNodes is a set of in-process nodes for a benchmark, on memory
// stores or on persist stores in dir.
type benchNodes struct {
	topo   Topology
	srvs   []*ingest.Server
	lns    []net.Listener
	stores []*shardstore.Store
	dir    string
	link   net.Listener // node 0's delay link, when it has one
}

// startBenchNodes starts n nodes; with delay > 0 the cluster reaches node
// 0 through a delay link.
func startBenchNodes(b *testing.B, n int, durable bool, delay time.Duration) *benchNodes {
	b.Helper()
	bn := &benchNodes{}
	if durable {
		parent := "/dev/shm"
		if _, err := os.Stat(parent); err != nil {
			parent = ""
		}
		var err error
		if bn.dir, err = os.MkdirTemp(parent, "routed-bench-"); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		var store *shardstore.Store
		var err error
		if durable {
			store, err = persist.OpenStore(fmt.Sprintf("%s/n%d", bn.dir, i), persist.Options{
				Fsync:        persist.FsyncPolicy{Mode: persist.FsyncAlways},
				CommitWindow: 2 * time.Millisecond,
			})
		} else {
			store, err = shardstore.New(16, 0)
		}
		if err != nil {
			b.Fatal(err)
		}
		srv, err := ingest.NewServerWithStore(ingest.DefaultConfig(), store)
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		addr := ln.Addr().String()
		if i == 0 && delay > 0 {
			bn.link = startDelayLink(b, addr, delay)
			addr = bn.link.Addr().String()
		}
		bn.srvs = append(bn.srvs, srv)
		bn.lns = append(bn.lns, ln)
		bn.stores = append(bn.stores, store)
		bn.topo.Nodes = append(bn.topo.Nodes, Node{ID: fmt.Sprintf("n%d", i), Addr: addr})
	}
	return bn
}

// stop shuts every node down, closes its store and removes the data
// directory.
func (bn *benchNodes) stop(b *testing.B) {
	if bn.link != nil {
		_ = bn.link.Close()
	}
	for i, srv := range bn.srvs {
		_ = bn.lns[i].Close()
		srv.Shutdown(0)
		if err := bn.stores[i].Close(); err != nil {
			b.Error(err)
		}
	}
	if bn.dir != "" {
		_ = os.RemoveAll(bn.dir)
	}
}

// startDelayLink forwards every connection it accepts to addr, handing on
// each read delay after it was read, in both directions: a link with a
// round trip of twice delay and no bandwidth cap of its own. Closing the
// listener stops it accepting; a forwarded connection ends with either
// side.
func startDelayLink(b *testing.B, addr string, delay time.Duration) net.Listener {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			sc, err := net.Dial("tcp", addr)
			if err != nil {
				_ = cc.Close()
				continue
			}
			go delayCopy(sc, cc, delay)
			go delayCopy(cc, sc, delay)
		}
	}()
	return ln
}

// delayCopy copies src to dst, each read delay late, then closes both.
func delayCopy(dst, src net.Conn, delay time.Duration) {
	type segment struct {
		due time.Time
		b   []byte
	}
	// Far more reads than a 1 ms link holds in flight at loopback rates,
	// so the reader does not wait on the writer.
	q := make(chan segment, 1024)
	go func() {
		defer close(q)
		for {
			buf := make([]byte, 64<<10)
			n, err := src.Read(buf)
			if n > 0 {
				q <- segment{time.Now().Add(delay), buf[:n]}
			}
			if err != nil {
				return
			}
		}
	}()
	for s := range q {
		time.Sleep(time.Until(s.due))
		if _, err := dst.Write(s.b); err != nil {
			break
		}
	}
	_ = dst.Close()
	_ = src.Close()
	for range q { // until the reader sees src closed
	}
}
