// Package backendtest checks the contract written on ingest.Stream
// against any ingest.Backend, so every back end runs one suite instead
// of hand-written tests of its own. A back end's tests call Run with a
// Factory that builds a fresh back end for each case.
//
// The suite drives the contract directly on Backend and Stream, and the
// client-visible cases through ingest.NewFrontend and ingest.NewSession
// over net.Pipe. Every body it hands a Stream is a fresh copy that it
// overwrites as soon as the call returns, so every case also checks that
// bodies are only valid for the call.
package backendtest

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// Fixture is one fresh back end and the probes the suite reads it
// through.
type Fixture struct {
	Backend ingest.Backend
	// Refcount returns the references the back end holds on h, summed
	// over its stores.
	Refcount func(h dedup.Hash) int64
	// Stats returns the back end's store totals, summed over its stores.
	Stats func() dedup.Stats
	// Fault makes the back end's next write fail, and returns a check
	// that an error is that failure, as a Stream returns it or as a
	// client reads it off the wire.
	Fault func() (isFault func(error) bool)
	// Reopen, when set, closes a durable back end and opens it again on
	// the same data. The old Fixture is not used afterwards.
	Reopen func() *Fixture
}

// Factory builds a fresh back end for one case, registering its own
// cleanup with t.
type Factory func(t *testing.T) *Fixture

// Spec is the chunking the suite cuts its streams with: bounded, as a
// dedup session needs, and within one frame, as a cluster needs.
var Spec = chunk.FastCDCSpec(4 << 10)

// engine cuts every stream the suite feeds; Spec is valid, so New
// cannot fail.
var engine, _ = chunk.New(Spec)

// batch is how many chunks one Add or round carries.
const batch = 16

// Run runs every case against a fresh back end from newFixture: in each
// mode, or once for a case that picks its feeds itself.
func Run(t *testing.T, newFixture Factory) {
	type tcase struct {
		name string
		run  func(t *testing.T, fx *Fixture, m mode)
		once bool
	}
	cases := []tcase{
		{"Restore", testRestore, false},
		{"Abort", testAbort, true},
		{"Recommit", testRecommit, false},
		{"UnknownName", testUnknownName, false},
		{"DeleteTwice", testDeleteTwice, false},
		{"ForgedBody", testForgedBody, true},
		{"EmptyStream", testEmptyStream, false},
		{"FaultMidFeed", func(t *testing.T, fx *Fixture, m mode) { testFault(t, fx, m, true) }, false},
		{"FaultBeforeCommit", func(t *testing.T, fx *Fixture, m mode) { testFault(t, fx, m, false) }, false},
		{"WireVanishedClient", testWireVanishedClient, true},
		{"WireFault", testWireFault, false},
		{"Reopen", testReopen, true},
	}
	for _, r := range refusals {
		cases = append(cases, tcase{"Refused" + r.name, func(t *testing.T, fx *Fixture, _ mode) { testRefused(t, fx, r) }, true})
	}
	for _, c := range cases {
		if c.once {
			t.Run(c.name, func(t *testing.T) { c.run(t, newFixture(t), modes[0]) })
			continue
		}
		for _, m := range modes {
			t.Run(c.name+"/"+m.name, func(t *testing.T) { c.run(t, newFixture(t), m) })
		}
	}
}

// stream is a stream's chunks in order.
type stream struct {
	hs     []dedup.Hash
	bodies [][]byte
}

// random is n fresh bytes from seed, cut with Spec.
func random(seed int64, n int) stream {
	data := workload.Random(seed, n)
	var s stream
	for _, c := range engine.Split(data) {
		b := data[c.Offset:c.End()]
		s.hs = append(s.hs, dedup.Sum(b))
		s.bodies = append(s.bodies, b)
	}
	return s
}

func (s stream) data() []byte { return bytes.Join(s.bodies, nil) }

func (s stream) slice(i, j int) stream { return stream{s.hs[i:j], s.bodies[i:j]} }

func (s stream) split(i int) (stream, stream) { return s.slice(0, i), s.slice(i, len(s.hs)) }

func join(ss ...stream) stream {
	var out stream
	for _, s := range ss {
		out.hs = append(out.hs, s.hs...)
		out.bodies = append(out.bodies, s.bodies...)
	}
	return out
}

// counts is each chunk's occurrence count across ss, and zero for every
// chunk of none that ss do not hold.
func counts(none []stream, ss ...stream) map[dedup.Hash]int64 {
	c := make(map[dedup.Hash]int64)
	for k, s := range append(none, ss...) {
		held := int64(0)
		if k >= len(none) {
			held = 1
		}
		for _, h := range s.hs {
			c[h] += held
		}
	}
	return c
}

// use hands fresh copies of bodies to call, then overwrites them: a back
// end that kept one past its call restores garbage.
func use(bodies [][]byte, call func([][]byte) error) error {
	cp := make([][]byte, len(bodies))
	for i, b := range bodies {
		cp[i] = bytes.Clone(b)
	}
	err := call(cp)
	for _, b := range cp {
		for i := range b {
			b[i] = 0xee
		}
	}
	return err
}

// mode is one way to feed a stream: on a Stream, and over the wire.
type mode struct {
	name   string
	feed   func(st ingest.Stream, s stream) error
	backup func(c *ingest.Session, name string, data []byte) (*ingest.StreamStats, error)
}

var modes = []mode{
	{"Add", add, (*ingest.Session).BackupBytes},
	{"Rounds", rounds, (*ingest.Session).BackupDedupBytes},
}

// add feeds s through Add, batch chunks at a time. An empty s is one
// empty Add, which fixes the stream's mode all the same.
func add(st ingest.Stream, s stream) error {
	for i := 0; i == 0 || i < len(s.hs); i += batch {
		part := s.slice(i, min(i+batch, len(s.hs)))
		if err := use(part.bodies, func(bodies [][]byte) error { return st.Add(part.hs, bodies) }); err != nil {
			return err
		}
	}
	return nil
}

// rounds feeds s through dedup rounds of batch chunks, or one empty
// round.
func rounds(st ingest.Stream, s stream) error {
	for i := 0; i == 0 || i < len(s.hs); i += batch {
		part := s.slice(i, min(i+batch, len(s.hs)))
		missing, err := st.RoundHas(part.hs)
		if err == nil {
			err = send(st, part, missing)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// send uploads the bodies a round asked for.
func send(st ingest.Stream, s stream, missing []int) error {
	for _, i := range missing {
		if err := use(s.bodies[i:i+1], func(b [][]byte) error { return st.RoundBody(b[0]) }); err != nil {
			return err
		}
	}
	return nil
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func open(t *testing.T, fx *Fixture, name string) ingest.Stream {
	t.Helper()
	st, err := fx.Backend.NewStream(name, nil)
	must(t, err)
	return st
}

// backUp backs s up under name in mode m.
func backUp(t *testing.T, fx *Fixture, m mode, name string, s stream) *ingest.StreamStats {
	t.Helper()
	st := open(t, fx, name)
	must(t, m.feed(st, s))
	return commit(t, st, name, s)
}

// commit commits a stream that was fed s and checks its stats: every
// chunk is counted once, and once as sent or skipped.
func commit(t *testing.T, st ingest.Stream, name string, s stream) *ingest.StreamStats {
	t.Helper()
	stats, err := st.Commit()
	must(t, err)
	n, size := int64(len(s.hs)), int64(len(s.data()))
	if stats.Chunks != n || stats.Bytes != size || stats.Wire.LogicalBytes != size ||
		stats.Wire.ChunksSent+stats.Wire.ChunksSkipped != n {
		t.Fatalf("%q: stats %+v for %d chunks, %d bytes", name, stats, n, size)
	}
	return stats
}

// restores checks that name restores to exactly s.
func restores(t *testing.T, fx *Fixture, name string, s stream) {
	t.Helper()
	var got []byte
	must(t, fx.Backend.Restore(name, func(c []byte) error { got = append(got, c...); return nil }, nil))
	if want := s.data(); !bytes.Equal(got, want) {
		t.Fatalf("%q restored %d bytes that differ from the %d fed", name, len(got), len(want))
	}
}

func restorable(fx *Fixture, name string) error {
	return fx.Backend.Restore(name, func([]byte) error { return nil }, nil)
}

func notFound(err error) bool {
	return errors.Is(err, shardstore.ErrUnknownRecipe) || errors.Is(err, ingest.ErrNotFound)
}

// state is what the back end holds: the references on some chunks, and
// the store totals.
type state struct {
	refs  map[dedup.Hash]int64
	stats dedup.Stats
}

func take(fx *Fixture, ss ...stream) state {
	refs := counts(ss)
	for h := range refs {
		refs[h] = fx.Refcount(h)
	}
	return state{refs, fx.Stats()}
}

func holds(fx *Fixture, refs map[dedup.Hash]int64) error {
	for h, n := range refs {
		if got := fx.Refcount(h); got != n {
			return fmt.Errorf("chunk %x holds %d references, want %d", h[:6], got, n)
		}
	}
	return nil
}

func (s state) matches(fx *Fixture) error {
	if got := fx.Stats(); got != s.stats {
		return fmt.Errorf("store totals %+v, want %+v", got, s.stats)
	}
	return holds(fx, s.refs)
}

// eventually polls check until it passes: a back end behind sessions
// applies what a node was sent, and releases what an aborted stream
// held, once the node has read it.
func eventually(t *testing.T, what string, check func() error) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		err := check()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

// testRestore: a stream with chunks repeated within a batch and across
// batches reaches the store before its Commit, counts every repeat as a
// duplicate, restores byte-exact and holds one reference per occurrence.
// A second stream of the same content is a duplicate throughout, is told
// nothing is missing, and holds its references when its feed returns.
func testRestore(t *testing.T, fx *Fixture, m mode) {
	r := random(1, 256<<10)
	s := join(r.slice(0, 4), r, r.slice(0, batch))
	st := open(t, fx, "first")
	must(t, m.feed(st, s))
	eventually(t, "before Commit", func() error { return holds(fx, counts(nil, s)) })
	if stats := commit(t, st, "first", s); stats.DupChunks != int64(len(s.hs)-len(r.hs)) {
		t.Fatalf("%d of %d chunks counted as duplicates, want %d", stats.DupChunks, len(s.hs), len(s.hs)-len(r.hs))
	}
	restores(t, fx, "first", s)
	must(t, holds(fx, counts(nil, s)))
	st = open(t, fx, "second")
	must(t, m.feed(st, s))
	must(t, holds(fx, counts(nil, s, s)))
	if stats := commit(t, st, "second", s); stats.DupChunks != stats.Chunks ||
		m.name == "Rounds" && stats.Wire.ChunksSent != 0 {
		t.Fatalf("the same content again: %+v", stats)
	}
	restores(t, fx, "second", s)
	restores(t, fx, "first", s)
}

// refusal is one of the four feeds the contract refuses: the stream is
// fed its first batch in its own mode — its round left owing bodies, if
// owe — and the refused call is tried on the rest.
type refusal struct {
	name      string
	owe       bool
	own, call func(st ingest.Stream, s stream) error
}

var refusals = []refusal{
	{"AddAfterRound", false, rounds, add},
	{"AddWhileOwed", true, rounds, add},
	{"RoundAfterAdd", false, add, rounds},
	{"RoundWhileOwed", true, rounds, rounds},
}

// testRefused: a refused call changes nothing in the store, and the
// stream still commits, restores and holds references exactly as fed in
// its own mode.
func testRefused(t *testing.T, fx *Fixture, r refusal) {
	s := random(2, 256<<10)
	first, rest := s.split(batch)
	st := open(t, fx, "mixed")
	var missing []int
	if r.owe {
		var err error
		if missing, err = st.RoundHas(first.hs); err != nil || len(missing) == 0 {
			t.Fatalf("fresh round: missing %v, %v", missing, err)
		}
	} else {
		must(t, r.own(st, first))
	}
	before := take(fx)
	if err := r.call(st, rest); err == nil {
		t.Fatal("the call was accepted")
	}
	must(t, before.matches(fx))
	must(t, send(st, first, missing))
	must(t, r.own(st, rest))
	commit(t, st, "mixed", s)
	restores(t, fx, "mixed", s)
	must(t, holds(fx, counts(nil, s)))
}

// testAbort: Abort after an Add, with bodies owed, after a finished
// round and after a failed Commit gives back every reference the stream
// took, and a second Abort gives back nothing more. The stream shares
// chunks with a committed one, so a release too many shows.
func testAbort(t *testing.T, fx *Fixture, m mode) {
	base := random(3, 128<<10)
	backUp(t, fx, m, "base", base)
	s := join(base, random(4, 128<<10))
	for _, moment := range []struct {
		name string
		feed func(st ingest.Stream) error
	}{
		{"after Add", func(st ingest.Stream) error { return add(st, s) }},
		{"with bodies owed", func(st ingest.Stream) error { _, err := st.RoundHas(s.hs); return err }},
		{"after a finished round", func(st ingest.Stream) error { return rounds(st, s) }},
		{"after a failed Commit", func(st ingest.Stream) error {
			if _, err := st.RoundHas(s.hs); err != nil {
				return err
			}
			if _, err := st.Commit(); err == nil {
				return errors.New("Commit with bodies owed succeeded")
			}
			return nil
		}},
	} {
		before := take(fx, s)
		st := open(t, fx, "doomed")
		must(t, moment.feed(st))
		st.Abort()
		eventually(t, "Abort "+moment.name, func() error { return before.matches(fx) })
		st.Abort()
		if err := before.matches(fx); err != nil {
			t.Fatalf("second Abort %s: %v", moment.name, err)
		}
	}
	restores(t, fx, "base", base)
}

// testRecommit: committing a name again replaces its stream and releases
// the old one's references.
func testRecommit(t *testing.T, fx *Fixture, m mode) {
	old := random(5, 128<<10)
	s := join(old.slice(0, batch), random(6, 64<<10))
	backUp(t, fx, m, "name", old)
	backUp(t, fx, m, "name", s)
	restores(t, fx, "name", s)
	must(t, holds(fx, counts([]stream{old}, s)))
}

// testUnknownName: an unknown name is an error matching
// shardstore.ErrUnknownRecipe or ingest.ErrNotFound; over the wire the
// client reads a *NotFoundError and its session survives.
func testUnknownName(t *testing.T, fx *Fixture, m mode) {
	if err := restorable(fx, "nope"); !notFound(err) {
		t.Fatalf("Restore of an unknown name: %v", err)
	}
	if _, err := fx.Backend.Delete("nope", nil); !notFound(err) {
		t.Fatalf("Delete of an unknown name: %v", err)
	}
	c := dial(t, fx)
	var nf *ingest.NotFoundError
	if _, err := c.RestoreBytes("nope"); !errors.As(err, &nf) || nf.Name != "nope" || !errors.Is(err, ingest.ErrNotFound) {
		t.Fatalf("restore over the wire: %v", err)
	}
	if _, err := c.Delete("nope"); !errors.As(err, &nf) || nf.Op != "delete" {
		t.Fatalf("delete over the wire: %v", err)
	}
	data := random(7, 64<<10).data()
	_, err := m.backup(c, "after", data)
	must(t, err)
	must(t, c.Verify("after", data))
}

// testDeleteTwice: a delete releases one reference per chunk and frees
// the chunks no other stream holds, which a backup of the same content
// stores again; a second delete is not-found; and once every stream is
// deleted the store is empty.
func testDeleteTwice(t *testing.T, fx *Fixture, m mode) {
	a := random(8, 128<<10)
	b := join(a.slice(0, batch), random(9, 64<<10))
	backUp(t, fx, m, "a", a)
	backUp(t, fx, m, "b", b)
	ds, err := fx.Backend.Delete("a", nil)
	if err != nil || ds.ChunksReleased != int64(len(a.hs)) || ds.ChunksFreed != int64(len(a.hs)-batch) {
		t.Fatalf("delete: %+v, %v", ds, err)
	}
	if _, err := fx.Backend.Delete("a", nil); !notFound(err) {
		t.Fatalf("second delete: %v", err)
	}
	if err := restorable(fx, "a"); !notFound(err) {
		t.Fatalf("restore after delete: %v", err)
	}
	restores(t, fx, "b", b)
	if st := backUp(t, fx, m, "again", a); st.Chunks-st.DupChunks != ds.ChunksFreed ||
		m.name == "Rounds" && st.Wire.ChunksSent != ds.ChunksFreed {
		t.Fatalf("backing the deleted content up again: %+v, %d freed", st, ds.ChunksFreed)
	}
	for _, name := range []string{"b", "again"} {
		_, err := fx.Backend.Delete(name, nil)
		must(t, err)
	}
	if st := fx.Stats(); st != (dedup.Stats{}) {
		t.Fatalf("store not empty after every stream is deleted: %+v", st)
	}
}

// testForgedBody: a body that does not hash to the fingerprint it
// answers fails the stream by its Commit, and is never stored.
func testForgedBody(t *testing.T, fx *Fixture, _ mode) {
	s := random(18, 64<<10)
	before := take(fx, s)
	st := open(t, fx, "forged")
	missing, err := st.RoundHas(s.hs)
	must(t, err)
	for k, i := range missing {
		body := s.bodies[i]
		if k == 0 {
			body = []byte("forged")
		}
		if err = st.RoundBody(body); err != nil {
			break
		}
	}
	if err == nil {
		_, err = st.Commit()
	}
	if err == nil {
		t.Fatal("a stream with a forged body committed")
	}
	st.Abort()
	eventually(t, "after the forged body", func() error { return before.matches(fx) })
}

// testEmptyStream: an empty stream commits and restores zero bytes,
// directly and over the wire.
func testEmptyStream(t *testing.T, fx *Fixture, m mode) {
	st := open(t, fx, "empty")
	must(t, m.feed(st, stream{}))
	commit(t, st, "empty", stream{})
	restores(t, fx, "empty", stream{})
	c := dial(t, fx)
	if stats, err := m.backup(c, "wire", nil); err != nil || stats.Bytes != 0 || stats.Wire.WireBytes != 0 {
		t.Fatalf("empty backup over the wire: %+v, %v", stats, err)
	}
	if got, err := c.RestoreBytes("wire"); err != nil || len(got) != 0 {
		t.Fatalf("empty restore over the wire: %d bytes, %v", len(got), err)
	}
}

// testFault: a failed write mid-feed, or after the last feed but before
// Commit, surfaces as the back end's error; nothing is committed, and
// once the stream is aborted the store is back where it was. Before
// Commit, a cluster's surviving nodes commit their sub-streams and must
// undo them.
func testFault(t *testing.T, fx *Fixture, m mode, midFeed bool) {
	base := random(10, 128<<10)
	backUp(t, fx, m, "base", base)
	s := join(base, random(11, 256<<10))
	fed, rest := s, stream{}
	if midFeed {
		fed, rest = s.split(len(s.hs) / 2)
	}
	before := take(fx, s)
	st := open(t, fx, "victim")
	must(t, m.feed(st, fed))
	isFault := fx.Fault()
	err := m.feed(st, rest)
	if err == nil {
		_, err = st.Commit()
	}
	if err == nil || !isFault(err) {
		t.Fatalf("stream over a failing back end ended with %v", err)
	}
	st.Abort()
	eventually(t, "after the fault", func() error { return before.matches(fx) })
	if restorable(fx, "victim") == nil {
		t.Fatal("the failed stream restores")
	}
}

// testReopen: what a commit acknowledged survives a restart — streams
// restore byte-exact, and every refcount and store total is as before
// — and an aborted stream leaves no reference behind it.
func testReopen(t *testing.T, fx *Fixture, _ mode) {
	if fx.Reopen == nil {
		t.Skip("the back end is not durable")
	}
	a := random(12, 128<<10)
	b := join(a.slice(0, batch), random(13, 128<<10))
	doomed := join(b, random(14, 64<<10))
	backUp(t, fx, modes[0], "a", a)
	backUp(t, fx, modes[1], "b", b)
	for _, abort := range []bool{false, true} {
		if abort {
			st := open(t, fx, "doomed")
			must(t, rounds(st, doomed))
			st.Abort()
		}
		before := take(fx, a, doomed)
		fx = fx.Reopen()
		must(t, before.matches(fx))
		restores(t, fx, "a", a)
		restores(t, fx, "b", b)
	}
	must(t, holds(fx, counts([]stream{doomed}, a, b)))
}

// dial starts a front end over the back end and connects a session to it
// over net.Pipe, negotiated for dedup backups with Spec.
func dial(t *testing.T, fx *Fixture) *ingest.Session {
	fe := ingest.NewFrontend(ingest.Config{}, engine, fx.Backend)
	cend, send := net.Pipe()
	done := make(chan struct{})
	go func() {
		_ = fe.ServeConn(send)
		send.Close()
		close(done)
	}()
	t.Cleanup(func() { cend.Close(); <-done })
	c := ingest.NewSession(cend)
	if accepted, err := c.NegotiateDedup(Spec); err != nil || accepted != Spec || c.Version() != ingest.ProtocolVersion {
		t.Fatalf("negotiated %+v at version %d: %v", accepted, c.Version(), err)
	}
	return c
}

// testWireVanishedClient: a client that vanishes mid-stream, its pins
// taken, leaves no reference behind once the front end has aborted it.
func testWireVanishedClient(t *testing.T, fx *Fixture, m mode) {
	base := random(15, 128<<10)
	backUp(t, fx, m, "base", base)
	before := take(fx, base)
	c := dial(t, fx)
	must(t, c.BeginDedup("vanishing", obs.SpanContext{}))
	if missing, err := c.HasBatch(base.hs); err != nil || len(missing) != 0 {
		t.Fatalf("held chunks: missing %v, %v", missing, err)
	}
	must(t, holds(fx, counts(nil, base, base)))
	c.Close()
	eventually(t, "after the client vanished", func() error { return before.matches(fx) })
	restores(t, fx, "base", base)
}

// testWireFault: a back end that fails while a client is uploading
// bodies hands the client its error in the Commit slot, without
// deadlocking the pipe, and commits nothing.
func testWireFault(t *testing.T, fx *Fixture, m mode) {
	base := random(16, 128<<10)
	backUp(t, fx, m, "base", base)
	before := take(fx, base)
	c := dial(t, fx)
	isFault := fx.Fault()
	_, err := m.backup(c, "doomed", join(base, random(17, 1<<20)).data())
	var re *ingest.RemoteError
	if !errors.As(err, &re) || !isFault(err) {
		t.Fatalf("backup over a failing back end: %v", err)
	}
	eventually(t, "after the failed backup", func() error { return before.matches(fx) })
	if restorable(fx, "doomed") == nil {
		t.Fatal("the failed stream restores")
	}
}
