package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/persist"
	"shredder/internal/shardstore"
)

// params is one invocation: a workload, a seed, how long to measure.
type params struct {
	w        *workload
	seed     uint64
	seconds  float64
	trace    bool
	dataRoot string
	outDir   string
	// shrink divides stream sizes and burst lengths; the tests run every
	// workload end to end at a fraction of the size.
	shrink int
	log    io.Writer
}

func (p params) bulkBytes() int { return p.w.bulkMiB << 20 / p.shrink }
func (p params) burst() int     { return max(4, p.w.burst/p.shrink) }

// env is one set-up service: a durable store in a fresh data
// directory, an ingest.Server on a loopback listener built the way
// cmd/shredderd builds it, and the sessions that drive it.
type env struct {
	dir   string
	opts  persist.Options
	reg   *obs.Registry
	store *shardstore.Store
	srv   *ingest.Server
	ln    net.Listener
	done  chan struct{} // closed when Serve returns
	// data[0] drives every single-session phase; data[1] joins it for
	// the pair phase. admin is a v3 session kept idle except for
	// deletes, which the legacy and v2 data sessions cannot issue.
	data  [2]*ingest.Session
	admin *ingest.Session
	m     *meter
	rec   *recorder // nil when untraced
	// src feeds ingest; chk regenerates the same streams for restores
	// and the reopen check, trailing src. small are the 64 KiB commit
	// streams, one source per data session.
	src, chk source
	small    [2]*uniqueSource
	// first is stream 0, uploaded and restored during set-up.
	first liveStream
}

// liveStream is a stream the server has acked and the harness has not
// deleted: the reopen check must find every one of them intact.
type liveStream struct {
	name   string
	src    int // -1: a bulk stream; else the small source that made it
	idx    int
	bytes  int64
	chunks int64
}

func (p params) persistOptions() persist.Options {
	// Options.CommitWindow is passed explicitly: its zero value means
	// "off", while shredderd's -commit-window flag defaults to 2 ms.
	return persist.Options{Fsync: p.w.fsync, CommitWindow: p.w.window}
}

// setup builds an env. Everything it does is set-up time: making the
// data directory, opening the store, starting the server, dialing and
// negotiating, generating the base inputs, and sending the first stream
// through and back.
func setup(p params) (e *env, err error) {
	e = &env{opts: p.persistOptions(), reg: obs.NewRegistry(), m: newMeter()}
	if p.trace {
		e.rec = newRecorder(e.m)
	}
	if e.dir, err = os.MkdirTemp(p.dataRoot, "shredbench-*"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			e.teardown()
		}
	}()
	e.opts.Obs = e.reg
	if err := e.openStore(e.opts); err != nil {
		return nil, err
	}
	obs.RegisterBuildInfo(e.reg)
	cfg := ingest.DefaultConfig() // 16 shards, batch 64, 4 MiB buffer: shredderd's flag defaults
	cfg.Obs = e.reg
	cfg.Tracer = obs.NewTracer(obs.TracerConfig{}) // the daemon always traces
	if e.srv, err = ingest.NewServerWithStore(cfg, e.store); err != nil {
		return nil, err
	}
	if e.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	if e.rec != nil {
		e.ln = tracedListener{Listener: e.ln, m: e.m}
	}
	e.done = make(chan struct{})
	go func() {
		defer close(e.done)
		_ = e.srv.Serve(e.ln) // returns net.ErrClosed at teardown
	}()

	for i := range e.data {
		if e.data[i], err = e.dial(); err != nil {
			return nil, err
		}
		if p.w.dedupWire {
			_, err = e.data[i].NegotiateDedup(fastcdc())
		} else {
			_, err = e.data[i].Negotiate(fastcdc())
		}
		if err != nil {
			return nil, err
		}
		e.small[i] = newUniqueSource(mix(p.seed, uint64(0xc0+i)), commitBytes)
	}
	if e.admin, err = e.dial(); err != nil {
		return nil, err
	}
	if _, err = e.admin.NegotiateDedup(fastcdc()); err != nil {
		return nil, err
	}

	if p.w.snapshots {
		e.src, e.chk = newSnapshotSource(p.seed, p.bulkBytes()), newSnapshotSource(p.seed, p.bulkBytes())
	} else {
		e.src, e.chk = newUniqueSource(p.seed, p.bulkBytes()), newUniqueSource(p.seed, p.bulkBytes())
	}
	// Stream 0 goes up and comes back during set-up: it is a snapshot
	// workload's golden image, and on every workload it makes the session
	// build its pipeline, the store open its first containers and both
	// ends grow their buffers before anything is timed.
	const name = "bulk-000000"
	var st *ingest.StreamStats
	if p.w.dedupWire {
		st, err = e.data[0].BackupDedup(name, bytes.NewReader(e.src.load(0)))
	} else {
		st, err = e.data[0].Backup(name, bytes.NewReader(e.src.load(0)))
	}
	if err != nil {
		return nil, fmt.Errorf("first stream: %w", err)
	}
	w := cmpWriter{want: e.chk.load(0)}
	if _, err = e.data[0].Restore(name, &w); err != nil || w.bad || w.off != len(w.want) {
		return nil, fmt.Errorf("first stream restored wrong (%d of %d bytes): %v", w.off, len(w.want), err)
	}
	e.first = liveStream{name: name, src: -1, bytes: st.Bytes, chunks: st.Chunks}
	return e, nil
}

// openStore opens the data directory; a traced run puts the timing
// decorator between the store and the durable backing.
func (e *env) openStore(opts persist.Options) error {
	b, err := persist.Open(e.dir, opts)
	if err != nil {
		return err
	}
	var backing shardstore.Backing = b
	if e.rec != nil {
		backing = newTimedBacking(b, e.rec)
	}
	if e.store, err = shardstore.Open(backing); err != nil {
		_ = b.Close()
		return err
	}
	return nil
}

func (e *env) dial() (*ingest.Session, error) {
	conn, err := net.DialTimeout("tcp", e.ln.Addr().String(), ingest.DefaultDialTimeout)
	if err != nil {
		return nil, err
	}
	return ingest.NewSession(&cliConn{Conn: conn, m: e.m}), nil
}

// stopServing closes the sessions, the listener and the store, in
// shredderd's shutdown order, leaving the data directory in place.
func (e *env) stopServing() error {
	for _, s := range []*ingest.Session{e.data[0], e.data[1], e.admin} {
		if s != nil {
			_ = s.Close()
		}
	}
	e.data, e.admin = [2]*ingest.Session{}, nil
	if e.ln != nil {
		_ = e.ln.Close()
		<-e.done
		e.srv.Shutdown(time.Second)
		e.ln = nil
	}
	if e.store == nil {
		return nil
	}
	err := e.store.Close()
	e.store = nil
	return err
}

// teardown stops the service and removes the data directory.
func (e *env) teardown() {
	_ = e.stopServing()
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// run is one measured execution of a workload's script.
type run struct {
	p params
	e *env

	mu        sync.Mutex // guards attempted, failed, failures in the pair phase
	attempted int
	failed    int
	failures  []string

	// Every timing carries the hypervisor steal that accrued while it was
	// taken (steal.go); the reported statistics are over the quiet ones.
	setupS      samples
	ingestMBps  samples
	ingestPlain samples // traced run only: the streams ingested with tracing off
	restoreMBps samples
	loneMs      samples // every latency of a burst shares the burst's disturbance
	pairMs      samples
	pairPerSec  samples // one per burst: streams acked per second of its wall time
	deleteMs    []float64
	compactS    []float64

	nextBulk  int
	nextSmall [2]int       // next unused stream of each small source
	bulk      []liveStream // live bulk streams, oldest first
	commits   []liveStream

	counted counted
}

// counted holds the exact counts: taken over a fixed amount of work
// (the first round, the first retention cycle, the lone bursts), so the
// same seed gives the same values whatever the machine does.
type counted struct {
	diskPerLogical, diskPerLive                float64
	walPerLogical, containerPerLogical         float64
	wirePerLogical, roundsPerStream            float64
	framesPerStream                            float64
	chunksPerStream, meanChunk, dupHitRatio    float64
	compactMoved, compactReclaimed             float64
	fsyncsPerLone, groupRoundsPerLone, loneRTT float64
}

// op counts one attempted operation; a non-nil err (or a failed check
// reported through it) counts it failed.
func (r *run) op(err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
	return false
}

// ingest sends one stream — over the dedup wire or raw — and checks the
// server's account of it against what was sent. kind names the operation
// for the trace; "" (the pair phase, where operations overlap) records
// none.
func (r *run) ingest(sess *ingest.Session, kind, name string, data []byte, rd *bytes.Reader, dedupWire, unique bool) (*ingest.StreamStats, time.Duration, bool) {
	rd.Reset(data)
	var o *opTrace
	if kind != "" {
		o = r.e.rec.begin(kind, "Backup", false, false)
	}
	var st *ingest.StreamStats
	var err error
	t0 := time.Now()
	if dedupWire {
		st, err = sess.BackupDedup(name, rd)
	} else {
		st, err = sess.Backup(name, rd)
	}
	d := time.Since(t0)
	if st != nil {
		r.e.rec.end(o, st.Bytes, st.Chunks)
	} else {
		r.e.rec.end(o, 0, 0)
	}
	n := int64(len(data))
	switch {
	case err != nil:
		err = fmt.Errorf("ingest %s: %w", name, err)
	case st.Bytes != n:
		err = fmt.Errorf("ingest %s: server acked %d bytes of %d", name, st.Bytes, n)
	case unique && n-st.UniqueBytes >= stampBytes:
		// Only a final chunk shorter than the closing stamp can repeat.
		err = fmt.Errorf("ingest %s: %d duplicate chunks (%d bytes) in a stream that shares nothing", name, st.DupChunks, n-st.UniqueBytes)
	case !dedupWire && st.Wire.WireBytes != n:
		err = fmt.Errorf("ingest %s: raw path reports %d wire bytes for %d", name, st.Wire.WireBytes, n)
	case !unique && float64(st.Wire.WireBytes) >= 0.2*float64(n):
		err = fmt.Errorf("ingest %s: %d wire bytes for a 10%%-changed %d-byte snapshot", name, st.Wire.WireBytes, n)
	}
	return st, d, r.op(err)
}

// cmpWriter checks restored bytes against the regenerated source as
// they arrive; it keeps consuming after a mismatch so the session stays
// in step.
type cmpWriter struct {
	want []byte
	off  int
	bad  bool
}

func (c *cmpWriter) Write(p []byte) (int, error) {
	if c.off+len(p) > len(c.want) || !bytes.Equal(p, c.want[c.off:c.off+len(p)]) {
		c.bad = true
	}
	c.off += len(p)
	return len(p), nil
}

func (r *run) restore(s liveStream) {
	w := cmpWriter{want: r.e.chk.load(s.idx)}
	o := r.e.rec.begin("restore", "Restore", false, false)
	sw := startWatch()
	n, err := r.e.data[0].Restore(s.name, &w)
	d, took := sw.stop()
	r.e.rec.end(o, n, s.chunks)
	switch {
	case err != nil:
		err = fmt.Errorf("restore %s: %w", s.name, err)
	case w.bad || w.off != len(w.want):
		err = fmt.Errorf("restore %s: differs from the source (%d of %d bytes)", s.name, w.off, len(w.want))
	}
	if r.op(err) {
		r.restoreMBps = append(r.restoreMBps, took.with(perSecond(float64(n), d)))
	}
}

// round ingests one round of bulk streams, then restores them. The
// counted round also takes the ingests' exact costs: bytes and round
// trips on the client connection, frames the server received, chunks
// cut and duplicate hits.
func (r *run) round(counted bool) {
	var rd bytes.Reader
	first := len(r.bulk)
	m := r.e.m
	var wire0, rtt0 int64
	var frames0 float64
	var stats0 dedup.Stats
	if counted {
		wire0, rtt0 = m.t[tCliRead].bytes.Load()+m.t[tCliWrite].bytes.Load(), m.rounds.Load()
		frames0, stats0 = registryValues(r.e.reg)["ingest_frames_total"], r.e.store.Stats()
	}
	traced := r.e.rec != nil
	for i := 0; i < roundStreams; i++ {
		idx := r.nextBulk
		r.nextBulk++
		name := fmt.Sprintf("bulk-%06d", idx)
		data := r.e.src.load(idx)
		// A traced run ingests every other stream with tracing off: the
		// difference between the two kinds is the tracing overhead.
		m.on.Store(traced && i%2 == 0)
		w := startWatch()
		st, d, ok := r.ingest(r.e.data[0], "ingest", name, data, &rd, r.p.w.dedupWire, !r.p.w.snapshots)
		_, took := w.stop()
		if !ok {
			continue
		}
		r.bulk = append(r.bulk, liveStream{name: name, src: -1, idx: idx, bytes: st.Bytes, chunks: st.Chunks})
		mbps := took.with(perSecond(float64(st.Bytes), d))
		if traced && !m.on.Load() {
			r.ingestPlain = append(r.ingestPlain, mbps)
		} else {
			r.ingestMBps = append(r.ingestMBps, mbps)
		}
	}
	m.on.Store(traced)
	if n := float64(len(r.bulk) - first); counted && n > 0 {
		var logical, chunks int64
		for _, s := range r.bulk[first:] {
			logical += s.bytes
			chunks += s.chunks
		}
		c := &r.counted
		wire := m.t[tCliRead].bytes.Load() + m.t[tCliWrite].bytes.Load() - wire0
		c.wirePerLogical = float64(wire) / float64(logical)
		c.roundsPerStream = float64(m.rounds.Load()-rtt0) / n
		c.framesPerStream = (registryValues(r.e.reg)["ingest_frames_total"] - frames0) / n
		c.chunksPerStream = float64(chunks) / n
		c.meanChunk = float64(logical) / float64(chunks)
		st := r.e.store.Stats()
		c.dupHitRatio = float64(st.IndexHits-stats0.IndexHits) / float64(st.Chunks-stats0.Chunks)
	}
	for _, s := range r.bulk[first:] {
		r.restore(s)
	}
}

// traceLocal wraps a call the harness makes on the store itself.
func (r *run) traceLocal(kind, name string, fn func() (int64, error)) error {
	o := r.e.rec.begin(kind, name, true, false)
	n, err := fn()
	r.e.rec.end(o, n, 0)
	return err
}

func (r *run) sync() {
	r.op(r.traceLocal("sync", "Sync", func() (int64, error) { return 0, r.e.store.Sync() }))
}

// retire runs one retention cycle: expire the older half of the live
// bulk streams through the admin session, then compact at the daemon's
// default threshold.
func (r *run) retire() shardstore.CompactStats {
	n := len(r.bulk) / 2
	for _, s := range r.bulk[:n] {
		o := r.e.rec.begin("delete", "Delete", false, false)
		t0 := time.Now()
		ds, err := r.e.admin.Delete(s.name)
		d := time.Since(t0)
		r.e.rec.end(o, 0, s.chunks)
		switch {
		case err != nil:
			err = fmt.Errorf("delete %s: %w", s.name, err)
		case ds.ChunksReleased != s.chunks:
			err = fmt.Errorf("delete %s: released %d references of %d", s.name, ds.ChunksReleased, s.chunks)
		}
		if r.op(err) {
			r.deleteMs = append(r.deleteMs, d.Seconds()*1e3)
		}
	}
	r.bulk = r.bulk[n:]
	var cs shardstore.CompactStats
	t0 := time.Now()
	err := r.traceLocal("compact", "Compact", func() (int64, error) {
		var err error
		cs, err = r.e.store.Compact(gcThreshold)
		return cs.MovedBytes, err
	})
	if r.op(err) {
		r.compactS = append(r.compactS, time.Since(t0).Seconds())
	}
	return cs
}

func (r *run) liveLogical() (n int64) {
	for _, s := range r.bulk {
		n += s.bytes
	}
	for _, s := range r.commits {
		n += s.bytes
	}
	return n
}

// dirBytes sums the data directory's regular files: journals (shard
// WALs and the recipe log) and everything else (containers, manifest).
func dirBytes(dir string) (wal, other int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if strings.HasSuffix(d.Name(), "wal") {
			wal += info.Size()
		} else {
			other += info.Size()
		}
		return nil
	})
	return wal, other, err
}

// script is the whole measured run. One iteration is a bulk round (8
// ingests, 8 restores), a burst of lone commits and a burst of paired
// commits, so every metric is sampled across the whole run and sees the
// same drift of the machine; every retireEvery-th iteration ends with a
// retention cycle. Iterations repeat until -seconds have passed. The
// first retention cycle is the counted one: before it the directory is
// measured against the live logical bytes, after it against the live
// index bytes. Everything up to there is a fixed amount of work, so
// those counts do not depend on how far the run gets afterwards.
func (r *run) script() {
	deadline := time.Now().Add(time.Duration(r.p.seconds * float64(time.Second)))
	r.e.m.on.Store(r.e.rec != nil)
	every := r.p.w.retireEvery
	// Once the counted part is behind it the run stops at the first phase
	// boundary past the deadline: on a machine the hypervisor has slowed to
	// a third, finishing the iteration would take the run past its limit.
	over := func(it int) bool { return it > every && !time.Now().Before(deadline) }
	for it := 1; ; it++ {
		r.round(it == 1)
		if over(it) {
			break
		}
		r.lone()
		if over(it) {
			break
		}
		r.pair()
		if it%every == 0 {
			counted := it == every
			if counted {
				r.sync()
				if wal, other, err := dirBytes(r.e.dir); r.op(err) {
					l := float64(r.liveLogical())
					r.counted.diskPerLogical = float64(wal+other) / l
					r.counted.walPerLogical = float64(wal) / l
					r.counted.containerPerLogical = float64(other) / l
				}
			}
			cs := r.retire()
			if counted {
				r.sync()
				wal, other, err := dirBytes(r.e.dir)
				_, live, _ := r.e.store.ContainerUsage()
				if r.op(err) && live > 0 {
					r.counted.diskPerLive = float64(wal+other) / float64(live)
				}
				r.counted.compactMoved = float64(cs.MovedBytes)
				r.counted.compactReclaimed = float64(cs.ReclaimedBytes)
			}
		}
		if it >= every && !time.Now().Before(deadline) {
			break
		}
	}
	if n := float64(len(r.loneMs)); n > 0 {
		r.counted.fsyncsPerLone /= n
		r.counted.groupRoundsPerLone /= n
		r.counted.loneRTT /= n
	}
}

// lone commits one burst of small unique streams on one session. The
// commit bursts go over the raw wire on every workload: a 64 KiB stream
// that shares nothing gains nothing from the dedup wire's extra round, and
// that round's two wake-ups made the latency follow the host's mood (17–23%
// run to run) instead of the service.
func (r *run) lone() {
	var rd bytes.Reader
	before := registryValues(r.e.reg)
	rt0 := r.e.m.rounds.Load()
	var ms []float64
	w := startWatch()
	for i := 0; i < r.p.burst(); i++ {
		n := r.nextSmall[0]
		r.nextSmall[0]++
		name := fmt.Sprintf("lone-%06d", n)
		st, d, ok := r.ingest(r.e.data[0], "lone", name, r.e.small[0].load(n), &rd, false, true)
		if !ok {
			continue
		}
		r.commits = append(r.commits, liveStream{name: name, src: 0, idx: n, bytes: st.Bytes, chunks: st.Chunks})
		ms = append(ms, d.Seconds()*1e3)
	}
	_, took := w.stop()
	for _, v := range ms {
		r.loneMs = append(r.loneMs, took.with(v))
	}
	// Sums here, per-stream means once the script is over.
	after := registryValues(r.e.reg)
	r.counted.fsyncsPerLone += after["persist_fsyncs_total"] - before["persist_fsyncs_total"]
	r.counted.groupRoundsPerLone += after["persist_group_commit_rounds_total"] - before["persist_group_commit_rounds_total"]
	r.counted.loneRTT += float64(r.e.m.rounds.Load() - rt0)
}

// pair commits one burst of small unique streams on both data sessions
// at once.
func (r *run) pair() {
	type out struct {
		ms      []float64
		streams []liveStream
	}
	var outs [2]out
	first := r.nextSmall
	o := r.e.rec.begin("pair", "Backup", false, true)
	w := startWatch()
	var wg sync.WaitGroup
	for k := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rd bytes.Reader
			for i := 0; i < r.p.burst(); i++ {
				n := first[k] + i
				name := fmt.Sprintf("pair%d-%06d", k, n)
				st, d, ok := r.ingest(r.e.data[k], "", name, r.e.small[k].load(n), &rd, false, true)
				if !ok {
					continue
				}
				outs[k].streams = append(outs[k].streams, liveStream{name: name, src: k, idx: n, bytes: st.Bytes, chunks: st.Chunks})
				outs[k].ms = append(outs[k].ms, d.Seconds()*1e3)
			}
		}()
	}
	wg.Wait()
	wall, took := w.stop()
	var bytesIn, chunks int64
	for k, x := range outs {
		r.nextSmall[k] += r.p.burst()
		for _, v := range x.ms {
			r.pairMs = append(r.pairMs, took.with(v))
		}
		r.commits = append(r.commits, x.streams...)
		for _, s := range x.streams {
			bytesIn += s.bytes
			chunks += s.chunks
		}
	}
	r.e.rec.end(o, bytesIn, chunks)
	if acked := len(outs[0].ms) + len(outs[1].ms); acked > 0 {
		r.pairPerSec = append(r.pairPerSec, took.with(float64(acked)/wall.Seconds()))
	}
}

// reopen is the durability gate: stop the service as shredderd does on
// SIGTERM, open the directory again with every chunk re-hashed, and
// require each acked, undeleted stream to be there and reconstruct
// byte for byte. It returns the reopen time.
func (r *run) reopen() (verifyS float64) {
	before := r.e.store.Stats()
	if !r.op(r.e.stopServing()) {
		return 0
	}
	opts := r.e.opts
	opts.Obs = nil
	opts.VerifyOnRecover = true
	t0 := time.Now()
	o := r.e.rec.begin("reopen", "Open", true, false)
	err := r.e.openStore(opts)
	r.e.rec.end(o, 0, 0)
	verifyS = time.Since(t0).Seconds()
	if !r.op(err) {
		return 0
	}
	if after := r.e.store.Stats(); after != before {
		r.op(fmt.Errorf("reopen: stats %+v, were %+v before the restart", after, before))
	}
	check := func(s liveStream, want []byte) {
		recipe, ok := r.e.store.Recipe(s.name)
		if !ok {
			r.op(fmt.Errorf("reopen: acked stream %s has no recipe", s.name))
			return
		}
		got, err := r.e.store.Reconstruct(recipe)
		if err == nil && !bytes.Equal(got, want) {
			err = errors.New("differs from the source")
		}
		if err != nil {
			err = fmt.Errorf("reopen: %s: %w", s.name, err)
		}
		r.op(err)
	}
	for _, s := range r.bulk {
		check(s, r.e.chk.load(s.idx))
	}
	for _, s := range r.commits {
		check(s, r.e.small[s.src].load(s.idx))
	}
	return verifyS
}

// A run sets up at least minSetups times, and keeps going (up to
// maxSetups) until it has spent setupBudget on it: setup_s is the median,
// and a 40 ms set-up needs more repeats than a 400 ms one to hold still.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2500 * time.Millisecond
)

// measure runs one workload: the set-ups (the last one is kept), the
// script, for a traced run the stage replay, and the reopen check. The
// data directory is removed before it returns.
func measure(p params) (*result, error) {
	r := &run{p: p}
	res := newResult(p)
	whole := startWatch()
	pr := newProbes()
	if p.shrink == 1 {
		pr.warmUp()
	}
	res.Calib.SHABefore, res.Calib.MemmoveBefore = pr.sha(), pr.memmove()
	for spent := time.Duration(0); len(r.setupS) < minSetups || (spent < setupBudget/time.Duration(p.shrink) && len(r.setupS) < maxSetups); {
		if r.e != nil {
			r.e.teardown()
		}
		w := startWatch()
		e, err := setup(p)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d, took := w.stop()
		spent += d
		r.setupS = append(r.setupS, took.with(d.Seconds()))
		r.e = e
	}
	defer r.e.teardown()
	r.bulk, r.nextBulk = []liveStream{r.e.first}, 1
	if p.log != nil {
		fmt.Fprintf(p.log, "%s: set up in %.3fs (median of %d), data in %s\n", p.w.name, median(r.setupS.quietValues(minQuietSetups)), len(r.setupS), r.e.dir)
	}

	r.script()
	var lay *layers
	if p.trace {
		lay = r.replay()
	}
	verifyS := r.reopen()
	if lay != nil {
		lay.recoverVerifyS = verifyS
		lay.recoverS = r.timePlainReopen()
	}
	res.Calib.SHAAfter, res.Calib.MemmoveAfter = pr.sha(), pr.memmove()
	_, took := whole.stop()
	res.StolenPct = 100 * took.stolen
	r.fill(res, lay)
	if p.log != nil {
		fmt.Fprintf(p.log, "%s: the hypervisor took %.1f%% of the machine; quiet samples: %d of %d bulk ingests, %d of %d restores, %d of %d lone commits\n",
			p.w.name, res.StolenPct, res.Quiet["ingest_mbps"], len(r.ingestMBps), res.Quiet["restore_mbps"], len(r.restoreMBps), res.Quiet["commit_lone_ms"], len(r.loneMs))
	}
	if p.trace {
		if err := os.MkdirAll(p.outDir, 0o755); err != nil {
			return nil, err
		}
		res.TraceFile = filepath.Join(p.outDir, "trace-"+p.w.name+".json")
		if err := r.e.rec.writeFile(res.TraceFile); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// timePlainReopen closes the verified store and opens the directory
// once more the way a plain restart does (no re-hash), for the time.
func (r *run) timePlainReopen() float64 {
	if r.e.store == nil || !r.op(r.e.stopServing()) {
		return 0
	}
	opts := r.e.opts
	opts.Obs = nil
	t0 := time.Now()
	if !r.op(r.e.openStore(opts)) {
		return 0
	}
	return time.Since(t0).Seconds()
}
