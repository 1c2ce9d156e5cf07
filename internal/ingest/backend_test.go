package ingest_test

import (
	"strings"
	"testing"
	"time"

	"shredder/internal/ingest"
	"shredder/internal/ingest/backendtest"
	"shredder/internal/persist"
	"shredder/internal/shardstore"
)

// TestBackendContract runs the Backend suite on the store back end, over
// memory and over a data directory that fsyncs every commit, with group
// commit.
func TestBackendContract(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		backendtest.Run(t, func(t *testing.T) *backendtest.Fixture {
			return storeFixture(t, func() (shardstore.Backing, error) { return shardstore.NewMemoryBacking(4, 0) }, false)
		})
	})
	t.Run("persist", func(t *testing.T) {
		backendtest.Run(t, func(t *testing.T) *backendtest.Fixture {
			dir := t.TempDir()
			return storeFixture(t, func() (shardstore.Backing, error) {
				return persist.Open(dir, persist.Options{Shards: 4, CommitWindow: time.Millisecond})
			}, true)
		})
	})
}

// storeFixture opens a store on the backing open returns, behind a
// FaultBacking; a durable one reopens on open's data.
func storeFixture(t *testing.T, open func() (shardstore.Backing, error), durable bool) *backendtest.Fixture {
	b, err := open()
	if err != nil {
		t.Fatal(err)
	}
	fb := &ingest.FaultBacking{Backing: b}
	store, err := shardstore.Open(fb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	fx := &backendtest.Fixture{
		Backend:  ingest.NewStoreBackend(store),
		Refcount: store.Refcount,
		Stats:    store.Stats,
		Fault: func() func(error) bool {
			fb.Arm(1)
			return func(err error) bool { return strings.Contains(err.Error(), ingest.ErrInjected.Error()) }
		},
	}
	if durable {
		fx.Reopen = func() *backendtest.Fixture {
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			return storeFixture(t, open, durable)
		}
	}
	return fx
}
