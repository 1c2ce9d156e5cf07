package cluster

import (
	"fmt"

	"shredder/internal/chunk"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// NewRouter puts the ingest wire front end over the cluster: ordinary
// ingest.Session clients (protocol v1–v4, unchanged) connect to it
// exactly as they would to a single shredderd — it is the same
// ingest.Frontend, sessions, draining, errors, metrics and spans
// included — and every stream is split by chunk ownership and fanned
// out behind their back. maxProto caps the protocol version offered to
// clients (0: ProtocolVersion). cmd/shredrouter wraps it in a daemon.
func NewRouter(c *Cluster, maxProto byte) *ingest.Frontend {
	cfg := ingest.Config{MaxProtocol: maxProto, Obs: c.obs, Tracer: c.tracer, Logger: c.log}
	return ingest.NewFrontend(cfg, c.eng, backend{c})
}

// backend is the Cluster as the front end's ingest.Backend. The front
// end's operation span becomes the remote parent of the routing span,
// just as a client's does for an in-process RoutedSession.
type backend struct{ c *Cluster }

// VetSpec adds the cluster's one rule to the protocol's: every
// accepted spec must bound chunks within one frame.
func (b backend) VetSpec(spec chunk.Spec) error { return vetSpec(spec) }

func (b backend) NewStream(name string, sp *obs.Span) (ingest.Stream, error) {
	st, err := b.c.NewStream(name, sp.Context())
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (b backend) Restore(name string, emit func([]byte) error, sp *obs.Span) error {
	return b.c.restore(name, emit, sp.Context())
}

func (b backend) Delete(name string, sp *obs.Span) (shardstore.DeleteStats, error) {
	return b.c.delete(name, sp.Context())
}

// vetSpec is the cluster's bound on chunking specs, its own and every
// client's: the restore path re-interleaves per-node streams at frame
// granularity, so every chunk must fit one frame.
func vetSpec(spec chunk.Spec) error {
	if spec.MaxSize <= 0 || spec.MaxSize > ingest.DefaultFrameSize {
		return fmt.Errorf("clustered sessions need a max chunk size in (0, %d], not %d (restore re-interleaves node streams at frame granularity)", ingest.DefaultFrameSize, spec.MaxSize)
	}
	return nil
}
