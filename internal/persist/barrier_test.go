package persist

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// countingBacking counts the group-commit barriers the store runs.
type countingBacking struct {
	*Backing
	barriers atomic.Int64
}

func (c *countingBacking) Barrier() error {
	c.barriers.Add(1)
	return c.Backing.Barrier()
}

// groupServer is an ingest server on a group-commit store whose barriers
// are counted. Put batches are four chunks, so small streams still take
// several.
func groupServer(t *testing.T, dir string) (*ingest.Server, *shardstore.Store, *countingBacking) {
	t.Helper()
	b, err := Open(dir, groupOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBacking{Backing: b}
	st, err := shardstore.Open(cb)
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	cfg := ingest.DefaultConfig()
	cfg.BatchSize = 4
	srv, err := ingest.NewServerWithStore(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	return srv, st, cb
}

// dedupSession opens a negotiated dedup-wire session; done is closed
// when the server side of it has returned (aborts included).
func dedupSession(t *testing.T, srv *ingest.Server) (c *ingest.Session, done chan struct{}) {
	t.Helper()
	cend, send := net.Pipe()
	done = make(chan struct{})
	go func() {
		defer close(done)
		defer send.Close()
		_ = srv.ServeConn(send)
	}()
	c = ingest.NewSession(cend)
	if _, err := c.NegotiateDedup(chunk.FastCDCSpec(4 << 10)); err != nil {
		t.Fatal(err)
	}
	return c, done
}

// bodies makes n distinct chunk bodies and their fingerprints.
func bodies(tag string, n int) ([]dedup.Hash, [][]byte) {
	hs, bs := make([]dedup.Hash, n), make([][]byte, n)
	for i := range bs {
		bs[i] = []byte(fmt.Sprintf("%s chunk %d", tag, i))
		hs[i] = dedup.Sum(bs[i])
	}
	return hs, bs
}

// TestOneBarrierPerStream pins where the durable-before-ack promise is
// paid under group commit: a stream reaches exactly one barrier, at its
// recipe commit, however many put batches or dedup rounds it took to get
// there, while delete and abort keep the barriers their ordering needs.
func TestOneBarrierPerStream(t *testing.T) {
	srv, st, cb := groupServer(t, t.TempDir())
	defer st.Close()
	delta := func() int64 { return cb.barriers.Swap(0) }

	// Raw wire: the server cuts the stream and puts it four chunks at a time.
	raw := serveConn(srv)
	defer raw.Close()
	rst, err := raw.BackupBytes("raw", workload.Random(21, 256<<10))
	if err != nil {
		t.Fatal(err)
	}
	if rst.Chunks < 12 {
		t.Fatalf("raw stream cut into %d chunks, too few for several put batches", rst.Chunks)
	}
	if n := delta(); n != 1 {
		t.Errorf("raw stream of %d chunks (put batches of 4) reached %d barriers before its ack, want 1", rst.Chunks, n)
	}

	// Dedup wire: three rounds — all new, half pinned, all pinned.
	c, _ := dedupSession(t, srv)
	defer c.Close()
	hs, bs := bodies("dedup", 12)
	if err := c.BeginDedup("dedup", obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	for i, round := range [][2]int{{0, 8}, {4, 12}, {0, 12}} {
		missing, err := c.DedupRound(hs[round[0]:round[1]], bs[round[0]:round[1]])
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{8, 4, 0}[i]; len(missing) != want {
			t.Fatalf("round %d: server asked for %d bodies, want %d", i, len(missing), want)
		}
	}
	dst, err := c.CommitDedup()
	if err != nil {
		t.Fatal(err)
	}
	if dst.Chunks != 28 || dst.Wire.ChunksSkipped != 16 {
		t.Fatalf("dedup stream stats %+v, want 28 chunks with 16 pinned", dst)
	}
	if n := delta(); n != 1 {
		t.Errorf("dedup stream of 3 rounds reached %d barriers before its ack, want 1", n)
	}

	// Delete: the tombstone must be durable before the references go, and
	// the releases durable before the ack.
	if _, err := c.Delete("dedup"); err != nil {
		t.Fatal(err)
	}
	if n := delta(); n != 2 {
		t.Errorf("delete reached %d barriers, want 2 (tombstone, then releases)", n)
	}

	// Abort: a stream that dies after a round gives its references back
	// through Release, which barriers.
	doomed, done := dedupSession(t, srv)
	if err := doomed.BeginDedup("doomed", obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	rhs, rbs := bodies("doomed", 6)
	if _, err := doomed.DedupRound(rhs, rbs); err != nil {
		t.Fatal(err)
	}
	doomed.Close()
	<-done
	if n := delta(); n != 1 {
		t.Errorf("aborted stream reached %d barriers, want 1 (its Release)", n)
	}
	if rc := st.Refcount(rhs[0]); rc != 0 {
		t.Errorf("aborted stream's chunk still has refcount %d", rc)
	}
}

// TestAbortedUnbarrieredStreamBalancedAfterReopen: a dedup stream stores
// new chunks and pins existing ones — none of it waited on a sync round —
// and dies before its commit. After close and reopen the store must
// count exactly what it would had the stream never existed.
func TestAbortedUnbarrieredStreamBalancedAfterReopen(t *testing.T) {
	dir := t.TempDir()
	srv, st, cb := groupServer(t, dir)
	c, _ := dedupSession(t, srv)
	hs, bs := bodies("kept", 10)
	if err := c.BeginDedup("kept", obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DedupRound(hs, bs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitDedup(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	before := st.Stats()
	cb.barriers.Store(0)

	doomed, done := dedupSession(t, srv)
	if err := doomed.BeginDedup("doomed", obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	nhs, nbs := bodies("doomed", 7)
	for _, round := range []struct {
		hs []dedup.Hash
		bs [][]byte
	}{{append(hs[:5:5], nhs[:4]...), append(bs[:5:5], nbs[:4]...)}, {append(hs[5:10:10], nhs[4:]...), append(bs[5:10:10], nbs[4:]...)}} {
		if _, err := doomed.DedupRound(round.hs, round.bs); err != nil {
			t.Fatal(err)
		}
	}
	if rc := st.Refcount(hs[0]); rc != 2 {
		t.Fatalf("refcount %d mid-stream, want the pin counted", rc)
	}
	if n := cb.barriers.Load(); n != 0 {
		t.Fatalf("%d barriers mid-stream, want none before the commit", n)
	}
	doomed.Close()
	<-done
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	got := openStore(t, dir, Options{VerifyOnRecover: true})
	defer got.Close()
	if after := got.Stats(); after != before {
		t.Fatalf("stats after abort + reopen %+v, want %+v", after, before)
	}
	for i, h := range hs {
		if rc := got.Refcount(h); rc != 1 {
			t.Errorf("kept chunk %d: refcount %d after reopen, want 1", i, rc)
		}
	}
	for i, h := range nhs {
		if rc := got.Refcount(h); rc != 0 {
			t.Errorf("aborted stream's chunk %d: refcount %d after reopen, want 0", i, rc)
		}
	}
	r, ok := got.Recipe("kept")
	if !ok {
		t.Fatal("committed recipe lost")
	}
	if _, err := got.Reconstruct(r); err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Recipe("doomed"); ok {
		t.Fatal("aborted stream left a recipe")
	}
}

// TestSyncFailureSurfacesAtCommit carries TestSyncFailureSticky's
// contract through the wire front end now that a stream meets the disk's
// verdict only at its commit: an fsync that fails while a stream is open
// — in the stream's own round, or in a round another stream paid for —
// comes back as that stream's commit error, naming the root cause.
func TestSyncFailureSurfacesAtCommit(t *testing.T) {
	root := errors.New("disk on fire")
	for _, tc := range []struct {
		name     string
		ownRound bool
	}{{"own round", true}, {"another stream's round", false}} {
		t.Run(tc.name, func(t *testing.T) {
			var broken atomic.Bool
			hookFsync(t, func(f *os.File) error {
				if broken.Load() {
					return root
				}
				return f.Sync()
			})
			srv, st, _ := groupServer(t, t.TempDir())
			defer st.Close() // fails: the backing is fail-stop by then

			c, _ := dedupSession(t, srv)
			defer c.Close()
			hs, bs := bodies("victim", 8)
			if err := c.BeginDedup("victim", obs.SpanContext{}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.DedupRound(hs[:4], bs[:4]); err != nil {
				t.Fatal(err)
			}
			broken.Store(true)
			if !tc.ownRound {
				other := serveConn(srv)
				defer other.Close()
				if _, err := other.BackupBytes("other", workload.Random(5, 32<<10)); err == nil || !strings.Contains(err.Error(), root.Error()) {
					t.Fatalf("the stream whose round failed got %v, want the root cause", err)
				}
				// The fault is latched; this round's puts already fail.
				if _, err := c.DedupRound(hs[4:], bs[4:]); err != nil {
					t.Fatalf("a failing round must be drained, not dropped: %v", err)
				}
			}
			_, err := c.CommitDedup()
			var re *ingest.RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Msg, root.Error()) {
				t.Fatalf("commit after a failed fsync = %v, want a RemoteError naming %q", err, root)
			}
			if _, ok := st.Recipe("victim"); ok && !tc.ownRound {
				t.Error("a stream that met a latched fault still recorded its recipe")
			}
		})
	}
}
