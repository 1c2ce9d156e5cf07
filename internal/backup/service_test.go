package backup

import (
	"fmt"
	"testing"

	"shredder/internal/workload"
)

// TestServiceMultiVM runs the cross-VM dedup experiment through the
// shredderd service path (concurrent sessions over net.Pipe) and
// checks it against the in-process Server on the same images: same
// dedup totals, same cross-VM sharing, byte-exact restores (asserted
// inside MultiVM).
func TestServiceMultiVM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferSize = 2 << 20

	golden := workload.NewImage(100, 8<<20, 64<<10, 0.05)
	names := []string{"golden"}
	images := [][]byte{golden.Master}
	for vm := 1; vm <= 4; vm++ {
		names = append(names, fmt.Sprintf("vm-%d", vm))
		images = append(images, golden.Snapshot(int64(vm)))
	}

	svc, err := NewService(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	results, err := svc.MultiVM(names, images)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Stats.Bytes != int64(len(images[i])) {
			t.Fatalf("stream %q saw %d bytes, want %d", r.Name, r.Stats.Bytes, len(images[i]))
		}
	}

	// In-process ground truth: the original single-threaded Server.
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		if _, err := srv.Backup(names[i], images[i], ShredderGPU); err != nil {
			t.Fatal(err)
		}
	}

	got, want := svc.SiteStats(), srv.SiteStats()
	// Concurrent interleaving cannot change the totals: same chunks,
	// same logical and stored bytes, same unique count.
	if got.LogicalBytes != want.LogicalBytes || got.Chunks != want.Chunks ||
		got.StoredBytes != want.StoredBytes || got.UniqueChunks != want.UniqueChunks {
		t.Fatalf("service path stats %+v, in-process path %+v", got, want)
	}
	if got.Ratio() < 3 {
		t.Fatalf("service-path dedup ratio %.2f, want > 3 for standardized images", got.Ratio())
	}
}

// TestServiceMultiVMDedup routes the multi-VM experiment over
// two-phase content-addressed sessions: every stream restores
// byte-exactly (asserted inside MultiVMDedup), the aggregate dedup
// totals match the raw service path on the same images, and the wire
// statistics show near-identical snapshots mostly skipped the wire.
func TestServiceMultiVMDedup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferSize = 2 << 20

	golden := workload.NewImage(100, 4<<20, 64<<10, 0.05)
	names := []string{"golden"}
	images := [][]byte{golden.Master}
	for vm := 1; vm <= 3; vm++ {
		names = append(names, fmt.Sprintf("vm-%d", vm))
		images = append(images, golden.Snapshot(int64(vm)))
	}

	dedupSvc, err := NewService(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The golden image goes up first and alone. A fingerprint round only
	// sees chunks that are already in the store, so streams that start
	// together each hear "missing" for content none of them has stored
	// yet and each upload it; the store dedups the copies on arrival,
	// but the wire bytes are spent. Snapshots of an image the site
	// already holds — the case the wire bound below is about — then run
	// concurrently.
	results, err := dedupSvc.MultiVMDedup(names[:1], images[:1])
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := dedupSvc.MultiVMDedup(names[1:], images[1:])
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, snaps...)
	var logical, wired int64
	for i, r := range results {
		if r.Stats.Bytes != int64(len(images[i])) {
			t.Fatalf("stream %q saw %d bytes, want %d", r.Name, r.Stats.Bytes, len(images[i]))
		}
		if r.Stats.Wire.ChunksSent+r.Stats.Wire.ChunksSkipped != r.Stats.Chunks {
			t.Fatalf("stream %q wire accounting %+v vs %d chunks", r.Name, r.Stats.Wire, r.Stats.Chunks)
		}
		logical += r.Stats.Wire.LogicalBytes
		wired += r.Stats.Wire.WireBytes
	}
	// Whatever the interleaving of the snapshot sessions, one VM's worth
	// of unique data plus each snapshot's churn crosses; the content they
	// share with the golden image must not.
	if wired >= logical/2 {
		t.Fatalf("dedup wire moved %d of %d logical bytes", wired, logical)
	}

	rawSvc, err := NewService(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rawSvc.MultiVM(names, images); err != nil {
		t.Fatal(err)
	}
	raw, dw := rawSvc.SiteStats(), dedupSvc.SiteStats()
	// Interleaving can shift which stream pays for a chunk, never the
	// totals.
	if raw.LogicalBytes != dw.LogicalBytes || raw.Chunks != dw.Chunks ||
		raw.StoredBytes != dw.StoredBytes || raw.UniqueChunks != dw.UniqueChunks {
		t.Fatalf("dedup service totals %+v diverge from raw %+v", dw, raw)
	}
}

// TestServiceExpireCompact runs retention through the service path:
// expiring one VM's snapshot releases its references, compaction
// shrinks the stored footprint, and the surviving streams restore.
func TestServiceExpireCompact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferSize = 2 << 20

	golden := workload.NewImage(100, 2<<20, 64<<10, 0.5)
	names := []string{"keep", "expire"}
	images := [][]byte{golden.Snapshot(1), golden.Snapshot(2)}
	svc, err := NewService(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.MultiVMDedup(names, images); err != nil {
		t.Fatal(err)
	}
	before := svc.SiteStats()
	ds, err := svc.Expire("expire")
	if err != nil {
		t.Fatal(err)
	}
	if ds.ChunksFreed == 0 || ds.BytesFreed == 0 {
		t.Fatalf("expire freed nothing at 50%% churn: %+v", ds)
	}
	after := svc.SiteStats()
	if after.StoredBytes != before.StoredBytes-ds.BytesFreed {
		t.Fatalf("stored bytes %d, want %d - %d", after.StoredBytes, before.StoredBytes, ds.BytesFreed)
	}
	if _, err := svc.Compact(0.9); err != nil {
		t.Fatal(err)
	}
	c := svc.Dial()
	defer c.Close()
	if err := c.Verify("keep", images[0]); err != nil {
		t.Fatalf("retained stream after expire+compact: %v", err)
	}
	if _, err := svc.Expire("expire"); err == nil {
		t.Fatal("second expire of the same name succeeded")
	}
}
