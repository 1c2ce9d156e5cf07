package ingest

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/core"
	"shredder/internal/dedup"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
)

// Config parameterizes the ingest server. The wire front end reads
// MaxProtocol, Shredder, Obs, Tracer and Logger (all that matters to a
// Frontend over some other back end); the rest configures the store
// back end.
type Config struct {
	// Shards and ContainerSize configure the shared shardstore
	// (0 means the shardstore defaults).
	Shards        int
	ContainerSize int64
	// Shredder configures how raw streams are cut. The server reads two
	// fields: Chunking (the engine sessions that never negotiate cut
	// with) and HostWorkers (> 1 or negative wraps every session engine
	// in chunk.Parallel). The simulated-GPU pipeline the rest of
	// core.Config describes is not on the serving path; the field keeps
	// that type solely because the bench/ module reads it.
	Shredder core.Config
	// BatchSize is how many of a dedup round's uploaded bodies the
	// server accumulates before one batched put against the store (0
	// means 64). It bounds the copies a round holds; raw streams do not
	// read it — their put is the chunking pipeline's batch, bodies by
	// reference.
	BatchSize int
	// MaxProtocol caps the protocol version the server will accept in
	// a Hello (0 means ProtocolVersion). Setting 2 turns off two-phase
	// dedup ingest and makes the server behave exactly like a
	// version-2 build — the shredderd -dedup-wire=false switch.
	MaxProtocol byte
	// Obs, when set, receives the server's metric families (and the
	// store's, via Store.Instrument). Nil means no instrumentation and
	// no overhead beyond one nil check per event.
	Obs *obs.Registry
	// Tracer, when set, records one span tree per client operation
	// (negotiate, backup, dedup backup, restore, delete) with children
	// at each lifecycle stage down through the store and its backing. A
	// version-4 client that sends a trace context gets its server spans
	// parented under its own, so both sides render as one tree. Nil
	// means no tracing and one nil check per operation.
	Tracer *obs.Tracer
	// Logger, when set, receives structured per-session events. Each
	// session logs under a unique "session" id, threaded from accept
	// through negotiate, commits and deletes to session end. Nil means
	// silent.
	Logger *slog.Logger
}

// DefaultConfig returns a service configuration: the paper's Rabin
// chunking with backup-study chunk limits, and 16 shards.
func DefaultConfig() Config {
	sc := core.DefaultConfig()
	sc.Chunking.MaskBits = 12
	sc.Chunking.Marker = 1<<12 - 1
	sc.Chunking.MinSize = 2 << 10
	sc.Chunking.MaxSize = 32 << 10
	return Config{Shards: 16, Shredder: sc, BatchSize: 64}
}

// Server is the single-node ingest service: the wire Frontend over one
// shared sharded store, which every session chunks and dedups into.
// Stream recipes are recorded in the store itself, so a durably-backed
// store (internal/persist) carries them across a restart.
type Server struct {
	*Frontend
	cfg   Config
	store *shardstore.Store
}

// NewServer builds a server around a fresh in-memory store.
func NewServer(cfg Config) (*Server, error) {
	store, err := shardstore.New(cfg.Shards, cfg.ContainerSize)
	if err != nil {
		return nil, err
	}
	return NewServerWithStore(cfg, store)
}

// NewServerWithStore builds a server on an existing store — the way to
// serve a durable store reopened from a data directory (cfg.Shards and
// cfg.ContainerSize are ignored; the store's backing fixed them). The
// caller keeps ownership of the store and closes it after Shutdown.
func NewServerWithStore(cfg Config, store *shardstore.Store) (*Server, error) {
	if cfg.BatchSize < 0 {
		return nil, errors.New("ingest: negative batch size")
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	eng, err := newEngine(cfg, cfg.Shredder.Chunking)
	if err != nil {
		return nil, err
	}
	// One registry serves one store: Instrument is idempotent against
	// the same registry, so two servers sharing a store may share it too.
	store.Instrument(cfg.Obs)
	be := &storeBackend{
		cfg:   cfg,
		store: store,
		pinned: cfg.Obs.Counter("ingest_chunks_pinned_total",
			"Chunk references pinned while answering HasBatch queries (aborted streams included)."),
		commitSeconds: cfg.Obs.Histogram("ingest_commit_seconds",
			"Durable recipe-commit latency per stream.", obs.LatencyBuckets),
	}
	return &Server{Frontend: NewFrontend(cfg, eng, be), cfg: cfg, store: store}, nil
}

// Store exposes the shared chunk store (for stats and tests).
func (s *Server) Store() *shardstore.Store { return s.store }

// Config returns the server's effective configuration (defaults
// applied).
func (s *Server) Config() Config { return s.cfg }

// Recipe returns the recorded recipe for a completed stream.
func (s *Server) Recipe(name string) (shardstore.Recipe, bool) {
	return s.store.Recipe(name)
}

// storeBackend is the Frontend's single-node back end: streams dedup
// into one shardstore.Store, a raw stream one pipeline batch per put and
// a dedup round's uploaded bodies in BatchSize puts.
type storeBackend struct {
	cfg           Config
	store         *shardstore.Store
	pinned        *obs.Counter // nil when cfg.Obs is nil, like commitSeconds
	commitSeconds *obs.Histogram
}

// VetSpec accepts everything the protocol does: one store restores
// chunks of any size.
func (b *storeBackend) VetSpec(chunk.Spec) error { return nil }

func (b *storeBackend) NewStream(name string, sp *obs.Span) (Stream, error) {
	return &storeStream{b: b, name: name, sp: sp}, nil
}

// Restore reads the recorded recipe back chunk by chunk.
func (b *storeBackend) Restore(name string, emit func([]byte) error, _ *obs.Span) error {
	recipe, ok := b.store.Recipe(name)
	if !ok {
		return fmt.Errorf("%w: %q", shardstore.ErrUnknownRecipe, name)
	}
	for i, h := range recipe {
		data, ok, err := b.store.GetByHash(h)
		if err == nil && !ok {
			err = fmt.Errorf("stream %q entry %d: no chunk for %x", name, i, h[:8])
		}
		if err != nil {
			return err
		}
		if err := emit(data); err != nil {
			return err
		}
	}
	return nil
}

// Delete tombstones the recipe durably and releases its chunk
// references.
func (b *storeBackend) Delete(name string, sp *obs.Span) (shardstore.DeleteStats, error) {
	return b.store.DeleteRecipeTraced(name, sp)
}

// storeStream is one backup into the store. Either way it is fed, the
// store and accounting outcomes over the same chunk sequence are
// identical.
type storeStream struct {
	b    *storeBackend
	name string
	sp   *obs.Span
	st   StreamStats
	// recipe is the stream so far, whole Add batches (raw) or whole
	// rounds (dedup) at a time: every entry holds one reference.
	recipe shardstore.Recipe

	// The open round's uploaded bodies (copies) not yet put, and their
	// fingerprints.
	batch   [][]byte
	batchHs []dedup.Hash

	// The open dedup round: its fingerprints, the indices still owed a
	// body, and the references it has taken so far (pins and stored
	// bodies alike) — they join recipe when the round completes. Only
	// references known to be applied are listed: a batch that failed
	// partway is left counted (a bounded leak, swept by a future fsck)
	// rather than risk releasing references another stream holds.
	hs      []dedup.Hash
	owed    []int
	applied shardstore.Recipe
	// The stream's mode, fixed by its first Add or RoundHas.
	added, twoPhase bool
}

// Add stores the next batch of a raw stream. A stream that has run a
// round is refused, owed bodies or not.
func (s *storeStream) Add(hs []dedup.Hash, bodies [][]byte) error {
	if s.twoPhase {
		return errors.New("ingest: batch added to a stream fed by rounds")
	}
	s.added = true
	return s.put(hs, bodies)
}

// put stores one batch as it stands and accounts it: the store copies
// what it keeps (PutHashedBatchTraced does not retain chunks), so the
// bodies need not outlive the call. A raw stream's batch is the
// pipeline's; a dedup round's uploaded bodies come through flush. Every
// body crossed the wire, so a duplicate here is a chunk the wire could
// not save: on the dedup path, another session stored it between our
// answer and the upload.
func (s *storeStream) put(hs []dedup.Hash, bodies [][]byte) error {
	if len(bodies) == 0 {
		return nil
	}
	put := s.sp.Child("put_batch", obs.Int("chunks", int64(len(bodies))))
	_, dup, err := s.b.store.PutHashedBatchTraced(hs, bodies, put)
	put.End()
	if err != nil {
		return err
	}
	if s.twoPhase {
		s.applied = append(s.applied, hs...)
	} else {
		s.recipe = append(s.recipe, hs...)
	}
	for i, c := range bodies {
		s.st.Chunks++
		s.st.Bytes += int64(len(c))
		if dup[i] {
			s.st.DupChunks++
		} else {
			s.st.UniqueBytes += int64(len(c))
		}
	}
	return nil
}

// flush puts the uploaded bodies pending in the open round.
func (s *storeStream) flush() error {
	err := s.put(s.batchHs, s.batch)
	s.batch, s.batchHs = s.batch[:0], s.batchHs[:0]
	return err
}

// push queues one uploaded body for the next put, flushing at BatchSize
// so memory stays bounded however large a round is.
func (s *storeStream) push(h dedup.Hash, body []byte) error {
	if s.batch == nil {
		s.batch = make([][]byte, 0, s.b.cfg.BatchSize)
		s.batchHs = make([]dedup.Hash, 0, s.b.cfg.BatchSize)
	}
	s.batch = append(s.batch, body)
	s.batchHs = append(s.batchHs, h)
	if len(s.batch) >= s.b.cfg.BatchSize {
		return s.flush()
	}
	return nil
}

// RoundHas opens the next dedup round. A stream fed by Add is refused,
// and so is a round while the last one still owes bodies.
func (s *storeStream) RoundHas(hs []dedup.Hash) ([]int, error) {
	if s.added {
		return nil, errors.New("ingest: fingerprint round on a stream fed by Add")
	}
	if len(s.owed) != 0 {
		return nil, fmt.Errorf("ingest: new round with %d bodies still owed", len(s.owed))
	}
	s.twoPhase = true
	hb := s.sp.Child("has_batch", obs.Int("chunks", int64(len(hs))))
	refs, missing, err := s.b.store.PinBatchTraced(hs, hb)
	hb.Set(obs.Int("missing", int64(len(missing))))
	hb.End()
	if err != nil {
		return nil, err
	}
	s.st.Wire.WireBytes += int64(len(hs) * hashSize)
	// Account the pinned (duplicate) chunks now; missing ones are
	// accounted as their bodies arrive.
	s.st.Wire.ChunksSkipped += int64(len(hs) - len(missing))
	s.b.pinned.Add(int64(len(hs) - len(missing)))
	mi := 0
	for i := range hs {
		if mi < len(missing) && missing[mi] == i {
			mi++
			continue
		}
		s.applied = append(s.applied, hs[i])
		s.st.Chunks++
		s.st.DupChunks++
		s.st.Bytes += refs[i].Length
	}
	s.hs, s.owed = hs, missing
	s.endRound()
	return missing, nil
}

// endRound closes the open round once no body is owed: the recipe is
// content-addressed — the round's fingerprints in stream order, pinned
// and uploaded alike.
func (s *storeStream) endRound() {
	if len(s.owed) == 0 {
		s.recipe = append(s.recipe, s.hs...)
		s.hs, s.applied = nil, s.applied[:0]
	}
}

func (s *storeStream) RoundBody(body []byte) error {
	if len(s.owed) == 0 {
		return errors.New("ingest: body arrived with none owed")
	}
	i := s.owed[0]
	if dedup.Sum(body) != s.hs[i] {
		// A body that does not hash to its announced fingerprint would
		// be stored under the wrong address and corrupt every stream
		// referencing it.
		return fmt.Errorf("ingest: uploaded body for batch index %d does not match its fingerprint", i)
	}
	s.owed = s.owed[1:]
	s.st.Wire.WireBytes += int64(len(body))
	s.st.Wire.ChunksSent++
	err := s.push(s.hs[i], append([]byte(nil), body...))
	if err == nil && len(s.owed) == 0 {
		if err = s.flush(); err == nil {
			s.endRound()
		}
	}
	return err
}

// Commit records the recipe — durably, when the store's backing is.
// Nothing is pending: Add puts its batch before it returns and a
// round's last body flushes the round.
func (s *storeStream) Commit() (*StreamStats, error) {
	if len(s.owed) != 0 {
		return nil, fmt.Errorf("ingest: commit with %d bodies still owed", len(s.owed))
	}
	c := s.sp.Child("commit", obs.Int("chunks", int64(len(s.recipe))))
	t0 := time.Now()
	err := s.b.store.CommitRecipeTraced(s.name, s.recipe, c)
	s.b.commitSeconds.ObserveSinceExemplar(t0, s.sp.Trace())
	c.End()
	if err != nil {
		return nil, err
	}
	st := &s.st
	if !s.twoPhase {
		// Every logical byte crossed the wire as a Data payload.
		st.Wire = WireStats{WireBytes: st.Bytes, ChunksSent: st.Chunks}
	}
	st.Wire.LogicalBytes = st.Bytes
	st.Store = s.b.store.Stats()
	return st, nil
}

// Abort gives back the references the stream took, so a backup that
// dies uncommitted cannot pin its chunks against reclamation. A second
// Abort finds nothing left to give back.
func (s *storeStream) Abort() {
	if held := append(s.recipe, s.applied...); len(held) > 0 {
		_, _ = s.b.store.Release(held)
	}
	s.recipe, s.applied = nil, nil
}
