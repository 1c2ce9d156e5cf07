package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"shredder/internal/chunk"
	"shredder/internal/dedup"
	"shredder/internal/obs"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// fakeBackend is a Backend that stores nothing: it records what the
// front end asks of its one stream and fails where a case tells it to.
// The front end drives a stream from one goroutine and every case reads
// the record only after the session has ended, so it needs no lock.
type fakeBackend struct {
	failAdd, failHas, failBody int // fail the n-th such call (1-based; 0: never)
	failCommit                 bool
	needAll                    bool // RoundHas reports every fingerprint missing

	adds, added, rounds, bodies, commits, aborts int // added: chunks over all Add batches
}

func (b *fakeBackend) VetSpec(chunk.Spec) error { return nil }

func (b *fakeBackend) NewStream(string, *obs.Span) (Stream, error) { return b, nil }

func (b *fakeBackend) Restore(name string, _ func([]byte) error, _ *obs.Span) error {
	return &NotFoundError{Op: "restore", Name: name}
}

func (b *fakeBackend) Delete(name string, _ *obs.Span) (shardstore.DeleteStats, error) {
	return shardstore.DeleteStats{}, fmt.Errorf("fake: %w", shardstore.ErrUnknownRecipe)
}

func (b *fakeBackend) Add(hs []dedup.Hash, bodies [][]byte) error {
	if b.adds++; b.adds == b.failAdd {
		return errors.New("fake: add refused")
	}
	if len(hs) != len(bodies) || len(hs) == 0 {
		return fmt.Errorf("fake: batch of %d fingerprints, %d bodies", len(hs), len(bodies))
	}
	b.added += len(hs)
	return nil
}

func (b *fakeBackend) RoundHas(hs []dedup.Hash) ([]int, error) {
	if b.rounds++; b.rounds == b.failHas {
		return []int{0}, errors.New("fake: round refused") // the indices must not reach the client
	}
	var missing []int
	for i := 0; b.needAll && i < len(hs); i++ {
		missing = append(missing, i)
	}
	return missing, nil
}

func (b *fakeBackend) RoundBody([]byte) error {
	if b.bodies++; b.bodies == b.failBody {
		return errors.New("fake: body refused")
	}
	return nil
}

func (b *fakeBackend) Commit() (*StreamStats, error) {
	b.commits++
	if b.failCommit {
		return nil, errors.New("fake: commit refused")
	}
	return &StreamStats{Chunks: int64(b.added + b.bodies)}, nil
}

func (b *fakeBackend) Abort() { b.aborts++ }

// TestFrontendAgainstFakeBackend drives the wire state machine over an
// unbuffered pipe against a back end that fails on cue, pinning down
// what every back end inherits from the one loop: how each kind of
// failure reaches the client, and that a stream that does not commit is
// aborted exactly once.
func TestFrontendAgainstFakeBackend(t *testing.T) {
	spec := chunk.FastCDCSpec(8 << 10)
	eng, err := chunk.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	// start serves one session; wait returns how it ended.
	start := func(t *testing.T, be *fakeBackend) (cend net.Conn, wait func() error) {
		cend, send := net.Pipe()
		errc := make(chan error, 1)
		go func() {
			defer send.Close()
			errc <- NewFrontend(Config{}, eng, be).ServeConn(send)
		}()
		t.Cleanup(func() { cend.Close() })
		return cend, func() error {
			t.Helper()
			select {
			case err := <-errc:
				return err
			case <-time.After(10 * time.Second):
				t.Fatal("session did not end")
				return nil
			}
		}
	}
	dedupSession := func(t *testing.T, cend net.Conn) *Session {
		t.Helper()
		c := NewSession(cend)
		if _, err := c.NegotiateDedup(spec); err != nil {
			t.Fatal(err)
		}
		if err := c.BeginDedup("s", obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	wantRemote := func(t *testing.T, err error, text string) {
		t.Helper()
		var re *RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, text) {
			t.Fatalf("client got %v, want a *RemoteError carrying %q", err, text)
		}
	}
	wantEnded := func(t *testing.T, be *fakeBackend, commits int) {
		t.Helper()
		if be.commits != commits || be.aborts != 1 {
			t.Fatalf("uncommitted stream saw %d Commit and %d Abort calls, want %d and 1", be.commits, be.aborts, commits)
		}
	}
	hs := []dedup.Hash{dedup.Sum([]byte("a")), dedup.Sum([]byte("b")), dedup.Sum([]byte("c"))}

	t.Run("commit", func(t *testing.T) {
		be := &fakeBackend{}
		cend, wait := start(t, be)
		if _, err := NewSession(cend).BackupBytes("s", workload.Random(1, 256<<10)); err != nil {
			t.Fatal(err)
		}
		cend.Close()
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		if be.adds == 0 || be.commits != 1 || be.aborts != 0 {
			t.Fatalf("committed stream: %d adds, %d commits, %d aborts", be.adds, be.commits, be.aborts)
		}
	})

	t.Run("add fails mid-stream", func(t *testing.T) {
		// The second batch is refused with most of 12 MiB still to come
		// and the pipeline's goroutines mid-stream: the client only gets
		// to read the Error frame if they are stopped and the rest of its
		// stream is drained. The session is assembled by hand so that what
		// it leaves behind can be looked at.
		be := &fakeBackend{failAdd: 2}
		before := runtime.NumGoroutine()
		cend, send := net.Pipe()
		defer cend.Close()
		s := &session{
			f:   NewFrontend(Config{}, eng, be),
			br:  bufio.NewReaderSize(send, 256<<10),
			bw:  bufio.NewWriterSize(send, 256<<10),
			eng: eng,
		}
		errc := make(chan error, 1)
		go func() {
			defer send.Close()
			_, name, err := readFrame(s.br, nil)
			if err == nil {
				err = s.backup(string(name), nil)
			}
			errc <- err
		}()
		_, err := NewSession(cend).BackupBytes("s", workload.Random(2, 12<<20))
		wantRemote(t, err, "add refused")
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "add refused") {
				t.Fatalf("session ended with %v, want the back end's refusal", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("session did not end")
		}
		if be.adds != 2 {
			t.Fatalf("back end was handed %d batches, want none after the refused second", be.adds)
		}
		wantEnded(t, be, 0)
		quiesced(t, before, s.feed.segs)
	})

	t.Run("round fails", func(t *testing.T) {
		be := &fakeBackend{failHas: 1}
		cend, wait := start(t, be)
		c := dedupSession(t, cend)
		// Drain mode: this round and the next both ask for nothing, and
		// the back end is not consulted again.
		for i := 0; i < 2; i++ {
			if missing, err := c.HasBatch(hs); err != nil || len(missing) != 0 {
				t.Fatalf("round %d while draining: missing %v, err %v", i, missing, err)
			}
		}
		_, err := c.CommitDedup()
		wantRemote(t, err, "round refused")
		if err := wait(); err == nil {
			t.Fatal("session survived a failed dedup stream")
		}
		if be.rounds != 1 {
			t.Fatalf("back end saw %d rounds, want only the failed one", be.rounds)
		}
		wantEnded(t, be, 0)
	})

	t.Run("body fails", func(t *testing.T) {
		be := &fakeBackend{needAll: true, failBody: 2}
		cend, wait := start(t, be)
		c := dedupSession(t, cend)
		missing, err := c.HasBatch(hs)
		if err != nil || len(missing) != len(hs) {
			t.Fatalf("missing %v, err %v", missing, err)
		}
		// The third body is owed on the wire but never reaches the back end.
		for _, body := range []string{"a", "b", "c"} {
			if err := c.WriteBody([]byte(body)); err != nil {
				t.Fatal(err)
			}
		}
		if missing, err := c.HasBatch(hs); err != nil || len(missing) != 0 {
			t.Fatalf("round while draining: missing %v, err %v", missing, err)
		}
		_, err = c.CommitDedup()
		wantRemote(t, err, "body refused")
		_ = wait()
		if be.bodies != 2 || be.rounds != 1 {
			t.Fatalf("back end saw %d bodies over %d rounds, want 2 over 1", be.bodies, be.rounds)
		}
		wantEnded(t, be, 0)
	})

	t.Run("commit fails", func(t *testing.T) {
		be := &fakeBackend{failCommit: true}
		cend, wait := start(t, be)
		c := dedupSession(t, cend)
		_, err := c.CommitDedup()
		wantRemote(t, err, "commit refused")
		_ = wait()
		wantEnded(t, be, 1)
	})

	t.Run("unexpected frame", func(t *testing.T) {
		// The connection stays open and silent after the bad frame: a
		// front end that tried to drain it would never end the session.
		for _, dedupWire := range []bool{false, true} {
			be := &fakeBackend{needAll: true}
			cend, wait := start(t, be)
			if dedupWire {
				c := dedupSession(t, cend)
				if _, err := c.HasBatch(hs); err != nil {
					t.Fatal(err)
				}
			} else if err := writeFrame(cend, MsgBegin, []byte("s")); err != nil {
				t.Fatal(err)
			}
			if err := writeFrame(cend, MsgCommit, nil); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := readFrame(cend, nil); err != nil || typ != MsgError {
				t.Fatalf("reply to a misplaced Commit: type %d, err %v", typ, err)
			}
			var ue *UnexpectedFrameError
			if err := wait(); !errors.As(err, &ue) {
				t.Fatalf("session ended with %v, want *UnexpectedFrameError", err)
			}
			wantEnded(t, be, 0)
		}
	})

	t.Run("truncation", func(t *testing.T) {
		for _, dedupWire := range []bool{false, true} {
			be := &fakeBackend{needAll: true}
			cend, wait := start(t, be)
			if dedupWire {
				c := dedupSession(t, cend)
				if _, err := c.HasBatch(hs); err != nil {
					t.Fatal(err)
				}
			} else if err := writeFrame(cend, MsgBegin, []byte("s")); err != nil {
				t.Fatal(err)
			}
			if err := writeFrame(cend, MsgData, []byte("a")); err != nil {
				t.Fatal(err)
			}
			cend.Close()
			var te *TruncatedError
			if err := wait(); !errors.As(err, &te) {
				t.Fatalf("session ended with %v, want *TruncatedError", err)
			}
			wantEnded(t, be, 0)
		}
	})

	t.Run("unknown name", func(t *testing.T) {
		// Whichever sentinel the back end wraps, the client sees the one
		// canonical text, typed, and the session survives it.
		be := &fakeBackend{}
		cend, wait := start(t, be)
		c := NewSession(cend)
		if _, err := c.NegotiateDedup(spec); err != nil {
			t.Fatal(err)
		}
		var nf *NotFoundError
		if _, err := c.RestoreBytes("ghost"); !errors.As(err, &nf) || nf.Name != "ghost" {
			t.Fatalf("restore of an unknown name: %v", err)
		}
		if _, err := c.Delete("ghost"); !errors.As(err, &nf) || nf.Name != "ghost" {
			t.Fatalf("delete of an unknown name: %v", err)
		}
		cend.Close()
		if err := wait(); err != nil {
			t.Fatalf("session did not survive unknown names: %v", err)
		}
	})
}
