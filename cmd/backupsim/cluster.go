package main

import (
	"fmt"
	"net"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/cluster"
	"shredder/internal/ingest"
	"shredder/internal/stats"
	"shredder/internal/workload"
)

// clusterNode is one in-process shredderd behind the router.
type clusterNode struct {
	srv *ingest.Server
	ln  net.Listener
}

func (n *clusterNode) shutdown() {
	n.ln.Close()
	n.srv.Shutdown(2 * time.Second)
}

// bootClusterNodes starts n in-process, in-memory shredderd nodes on
// loopback TCP.
func bootClusterNodes(n int, cfg ingest.Config) ([]*clusterNode, cluster.Topology, error) {
	var nodes []*clusterNode
	var topo cluster.Topology
	fail := func(err error) ([]*clusterNode, cluster.Topology, error) {
		for _, nd := range nodes {
			nd.shutdown()
		}
		return nil, cluster.Topology{}, err
	}
	for i := 0; i < n; i++ {
		srv, err := ingest.NewServer(cfg)
		if err != nil {
			return fail(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		go srv.Serve(ln)
		nodes = append(nodes, &clusterNode{srv: srv, ln: ln})
		topo.Nodes = append(topo.Nodes, cluster.Node{
			ID:   fmt.Sprintf("n%d", i),
			Addr: ln.Addr().String(),
		})
	}
	return nodes, topo, nil
}

// startClusterRouter puts a router in front of the topology and
// returns its client address plus a shutdown func.
func startClusterRouter(topo cluster.Topology, spec chunk.Spec) (string, func(), error) {
	c, err := cluster.New(cluster.Config{Topology: topo, Spec: spec, Tracer: tracer})
	if err != nil {
		return "", nil, err
	}
	r := cluster.NewRouter(c, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return "", nil, err
	}
	go r.Serve(ln)
	stop := func() {
		ln.Close()
		r.Shutdown(2 * time.Second)
		c.Close()
	}
	return ln.Addr().String(), stop, nil
}

// runCluster is the -cluster N mode: boot N in-process nodes and a
// router, run the ordinary client series through the router (the
// client is completely unaware it is talking to a cluster), verify
// every stream restores byte-exactly, and report how the chunks
// sharded across the nodes.
func runCluster(n int, prefix string, spec *chunk.Spec, dedupWire bool, size, snapshots int, prob float64, seed int64) (*runSummary, error) {
	cspec := cluster.DefaultSpec()
	if spec != nil {
		cspec = *spec
	}
	nodes, topo, err := bootClusterNodes(n, simConfig())
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, nd := range nodes {
			nd.shutdown()
		}
	}()
	addr, stopRouter, err := startClusterRouter(topo, cspec)
	if err != nil {
		return nil, err
	}
	defer stopRouter()
	fmt.Fprintf(human, "cluster: %d nodes behind router %s\n", n, addr)

	sum, err := runClient(addr, prefix, spec, dedupWire, size, snapshots, prob, seed)
	if err != nil {
		return nil, err
	}
	sum.Mode = "cluster"

	// Verify through the router: the re-interleaved restores must be
	// byte-identical to the originals.
	im := workload.NewImage(seed, size, 64<<10, prob)
	v, err := ingest.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer v.Close()
	if err := v.Verify(prefix+"-master", im.Master); err != nil {
		return nil, fmt.Errorf("routed restore of master: %w", err)
	}
	for i := 1; i <= snapshots; i++ {
		name := fmt.Sprintf("%s-snapshot-%d", prefix, i)
		if err := v.Verify(name, im.Snapshot(seed+int64(i))); err != nil {
			return nil, fmt.Errorf("routed restore of %s: %w", name, err)
		}
	}

	fmt.Fprintf(human, "restores verified; distribution across %d nodes:\n", n)
	for i, nd := range nodes {
		st := nd.srv.Store().Stats()
		fmt.Fprintf(human, "  node n%d: %s stored, %d unique chunks, %d recipes\n",
			i, stats.Bytes(st.StoredBytes), st.UniqueChunks,
			len(nd.srv.Store().RecipeNames()))
	}
	return sum, nil
}
