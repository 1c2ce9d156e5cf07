package cluster

import (
	"time"

	"shredder/internal/obs"
)

// streamOps are the routed-operation labels.
var streamOps = []string{"backup", "backup_dedup", "restore", "delete"}

// metrics holds the routing layer's pre-resolved metric handles,
// per-node families indexed by topology position. A router's client
// sessions, frames and protocol errors are the front end's to count
// (the ingest_* families). A nil *metrics (no registry) makes every
// method a no-op.
type metrics struct {
	streams      map[string]*obs.Counter
	logicalBytes *obs.Counter

	nodeUp       []*obs.Gauge
	nodeTx       []*obs.Counter
	nodeRx       []*obs.Counter
	rounds       []*obs.Counter
	roundSec     []*obs.Histogram
	nodeDialFail []*obs.Counter
}

func newMetrics(reg *obs.Registry, t Topology) *metrics {
	if reg == nil {
		return nil
	}
	m := &metrics{
		streams: make(map[string]*obs.Counter, len(streamOps)),
		logicalBytes: reg.Counter("cluster_logical_bytes_total",
			"Logical stream bytes committed across the cluster."),
	}
	for _, op := range streamOps {
		m.streams[op] = reg.Counter("cluster_streams_total",
			"Routed operations completed, by kind.", "op", op)
	}
	for _, n := range t.Nodes {
		m.nodeUp = append(m.nodeUp, reg.Gauge("cluster_node_up",
			"Whether the node's last session setup succeeded (1) or failed (0).",
			"node", n.ID))
		m.nodeTx = append(m.nodeTx, reg.Counter("cluster_node_tx_bytes_total",
			"Payload bytes routed to the node (fingerprints, bodies, manifests).",
			"node", n.ID))
		m.nodeRx = append(m.nodeRx, reg.Counter("cluster_node_rx_bytes_total",
			"Payload bytes received from the node (restored chunks, manifests).",
			"node", n.ID))
		m.rounds = append(m.rounds, reg.Counter("cluster_node_rounds_total",
			"Dedup fingerprint rounds run against the node.", "node", n.ID))
		m.roundSec = append(m.roundSec, reg.Histogram("cluster_node_round_seconds",
			"Per-node dedup round latency: HasBatch out to missing-set answer, plus the owed bodies' upload on a round with the bodies in hand (Add).",
			obs.LatencyBuckets, "node", n.ID))
		m.nodeDialFail = append(m.nodeDialFail, reg.Counter("cluster_node_dial_failures_total",
			"Failed attempts to lease a session to the node.", "node", n.ID))
	}
	return m
}

func (m *metrics) stream(op string) {
	if m == nil {
		return
	}
	if c, ok := m.streams[op]; ok {
		c.Inc()
	}
}

func (m *metrics) committed(bytes int64) {
	if m == nil {
		return
	}
	m.logicalBytes.Add(bytes)
}

func (m *metrics) setNodeUp(i int, up bool) {
	if m == nil {
		return
	}
	v := int64(0)
	if up {
		v = 1
	}
	m.nodeUp[i].Set(v)
}

func (m *metrics) dialFailure(i int) {
	if m == nil {
		return
	}
	m.nodeDialFail[i].Inc()
}

func (m *metrics) round(i int, dur time.Duration) {
	if m == nil {
		return
	}
	m.rounds[i].Inc()
	m.roundSec[i].Observe(dur.Seconds())
}

func (m *metrics) nodeTraffic(i int, tx, rx int64) {
	if m == nil {
		return
	}
	if tx > 0 {
		m.nodeTx[i].Add(tx)
	}
	if rx > 0 {
		m.nodeRx[i].Add(rx)
	}
}
