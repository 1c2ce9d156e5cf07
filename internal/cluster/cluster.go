// Package cluster scales the ingest service out to a static set of
// shredderd nodes behind one consistent-hash ring.
//
// The paper's pipeline — and everything in internal/ingest — is a
// single-node design: one store owns every chunk and every recipe.
// This package partitions that ownership by content: a chunk's SHA-256
// fingerprint hashes onto a ring of virtual nodes, and the node whose
// point follows it owns the chunk — its body, its index entry, and its
// reference counts. Refcounts are strictly node-owned: no node ever
// holds a reference on another node's behalf, so retention (delete,
// GC, compaction) stays a purely local decision on every node, exactly
// as in the single-node design.
//
// A backed-up stream is stored as N+1 node-local objects:
//
//   - on every owner node, a sub-stream committed under the client's
//     stream name through the ordinary v3 dedup protocol: the node's
//     chunks, in stream order. The node pins them like any other
//     stream — it neither knows nor cares that siblings exist.
//   - on the stream's home node (the ring owner of the stream *name*),
//     a manifest under a reserved name: the full fingerprint sequence,
//     which is exactly the information needed to re-interleave the
//     per-node sub-streams back into the original byte stream.
//
// Restore fetches the manifest, opens one restore stream per owner
// node, and merges them chunk by chunk in manifest order, verifying
// every chunk's fingerprint on the way through. Delete fans out to
// every node (a node without a sub-stream answers not-found, which is
// benign) and removes the manifest last.
//
// RoutedSession exposes this as a drop-in Session-shaped API for
// in-process callers; NewRouter serves it to ordinary network clients
// by putting internal/ingest's wire front end — the one shredderd
// runs — over the cluster as its back end (cmd/shredrouter is the
// daemon).
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"shredder/internal/chunk"
	"shredder/internal/ingest"
	"shredder/internal/obs"
)

// Node is one shredderd instance in the topology. The ID places the
// node on the ring: it must be stable across restarts and topology
// edits, or the node's chunks migrate out from under it.
type Node struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Topology is the static node set a cluster routes across.
type Topology struct {
	Nodes []Node `json:"nodes"`
}

// Validate rejects empty topologies and duplicate IDs or addresses.
func (t Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return errors.New("cluster: topology has no nodes")
	}
	ids := make(map[string]bool, len(t.Nodes))
	addrs := make(map[string]bool, len(t.Nodes))
	for _, n := range t.Nodes {
		if n.ID == "" || n.Addr == "" {
			return fmt.Errorf("cluster: node %+v needs both an id and an address", n)
		}
		if ids[n.ID] {
			return fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		if addrs[n.Addr] {
			return fmt.Errorf("cluster: duplicate node address %q", n.Addr)
		}
		ids[n.ID] = true
		addrs[n.Addr] = true
	}
	return nil
}

// ParseNodes parses a flag-style topology: comma-separated entries,
// each "id=addr" or a bare "addr" (which uses the address as the ID —
// fine for experiments, but give nodes explicit IDs in any deployment
// where addresses might change, because the ID is what places data).
func ParseNodes(list string) (Topology, error) {
	var t Topology
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addr, found := strings.Cut(entry, "=")
		if !found {
			id, addr = entry, entry
		}
		t.Nodes = append(t.Nodes, Node{ID: id, Addr: addr})
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// LoadTopology reads a JSON topology file: {"nodes": [{"id": ...,
// "addr": ...}, ...]}.
func LoadTopology(path string) (Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, fmt.Errorf("cluster: read topology: %w", err)
	}
	var t Topology
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Topology{}, fmt.Errorf("cluster: parse topology %s: %w", path, err)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// DefaultSpec is the cluster-side default chunking configuration: the
// protocol-default Rabin engine with the daemon's conventional size
// bounds, which a dedup session requires.
func DefaultSpec() chunk.Spec {
	spec := chunk.DefaultSpec()
	spec.MinSize = 2 << 10
	spec.MaxSize = 32 << 10
	return spec
}

// Config assembles a Cluster.
type Config struct {
	// Topology is the static node set (required).
	Topology Topology
	// Vnodes is the virtual-node count per node (0: DefaultVnodes).
	Vnodes int
	// Spec is the chunking configuration used where the cluster chunks
	// itself: RoutedSession.Backup and the router's raw-protocol
	// clients. Zero means DefaultSpec. MaxSize must be in
	// (0, DefaultFrameSize]: the restore path re-interleaves per-node
	// streams at frame granularity, so every chunk must fit one frame.
	Spec chunk.Spec
	// Dial bounds node connects (zero: one DefaultDialTimeout attempt).
	Dial ingest.DialOptions
	// MaxIdlePerNode bounds the warm sessions kept per node (0: 2).
	MaxIdlePerNode int
	// Obs, when set, registers the routing metrics there (and, under a
	// router, the front end's ingest_* families).
	Obs *obs.Registry
	// Tracer, when set, records router-side spans, remote-parented
	// under the client's when one arrives on the wire.
	Tracer *obs.Tracer
	// Logger, when set, receives routing-layer logs.
	Logger *slog.Logger
}

// Cluster is the shared routing state: the ring, one session pool per
// node, and the metric handles. Safe for concurrent use; every
// concurrent client stream leases its own node sessions.
type Cluster struct {
	ring   *Ring
	spec   chunk.Spec
	eng    chunk.Engine
	pools  []*ingest.SessionPool
	obs    *obs.Registry
	tracer *obs.Tracer
	log    *slog.Logger
	met    *metrics
}

// New validates cfg and builds the cluster. No connections are opened
// yet: nodes are dialed lazily, per stream, as ownership demands.
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Topology, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	spec := cfg.Spec
	if spec == (chunk.Spec{}) {
		spec = DefaultSpec()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := vetSpec(spec); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	eng, err := chunk.New(spec)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		ring:   ring,
		spec:   spec,
		eng:    eng,
		obs:    cfg.Obs,
		tracer: cfg.Tracer,
		log:    cfg.Logger,
		met:    newMetrics(cfg.Obs, cfg.Topology),
	}
	// Node sessions negotiate the most permissive bounded spec: the
	// chunks a node receives were cut by some client's engine (possibly
	// larger than ours, never larger than a frame), and negotiation is
	// about the *server-side* engine, which dedup sub-streams never use.
	nodeSpec := spec
	nodeSpec.MaxSize = ingest.DefaultFrameSize
	for i, n := range cfg.Topology.Nodes {
		node := n
		idx := i
		c.pools = append(c.pools, &ingest.SessionPool{
			Addr:    node.Addr,
			Dial:    cfg.Dial,
			MaxIdle: cfg.MaxIdlePerNode,
			Setup: func(s *ingest.Session) error {
				if _, err := s.NegotiateDedup(nodeSpec); err != nil {
					return err
				}
				c.met.setNodeUp(idx, true)
				return nil
			},
		})
	}
	return c, nil
}

// Ring exposes the cluster's hash ring (read-only).
func (c *Cluster) Ring() *Ring { return c.ring }

// Spec returns the cluster-side chunking configuration.
func (c *Cluster) Spec() chunk.Spec { return c.spec }

// Close drops every warm node session. In-flight streams are
// unaffected; the cluster stays usable (later streams redial).
func (c *Cluster) Close() {
	for _, p := range c.pools {
		p.Close()
	}
}

// lease gets a session to node i, counting dial failures and marking
// the node down when it cannot be reached.
func (c *Cluster) lease(i int) (*ingest.Session, error) {
	s, err := c.pools[i].Get()
	if err != nil {
		c.met.setNodeUp(i, false)
		c.met.dialFailure(i)
		return nil, &NodeError{Node: c.ring.Node(i).ID, Op: "dial", Err: err}
	}
	return s, nil
}

// span starts one routing-operation span, remote-parented when the
// client sent a trace context; nil (a universal no-op) untraced.
func (c *Cluster) span(name string, ctx obs.SpanContext, attrs ...obs.Attr) *obs.Span {
	if c.tracer == nil {
		return nil
	}
	return c.tracer.StartRemote(name, ctx, attrs...)
}
