package ingest

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"shredder/internal/chunk"
	"shredder/internal/shardstore"
	"shredder/internal/workload"
)

// TestRawFeedMatchesEngineSplit pins the raw path's frame-to-stream
// feed and the boundary format it persists: however the client frames
// a stream, and whether or not the session negotiated, the committed
// recipe is SHA-256 over the session engine's own Split of the same
// bytes, chunk by chunk. The no-Hello rows are the legacy boundary
// format — stores written by earlier builds hold recipes cut this way,
// so it must not drift.
func TestRawFeedMatchesEngineSplit(t *testing.T) {
	image := workload.Random(71, 3<<20)
	defaultSpec := DefaultConfig().Shredder.Chunking
	fastcdc := chunk.FastCDCSpec(4 << 10)
	cases := []struct {
		name      string
		negotiate *chunk.Spec // nil: the session never sends a Hello
		workers   int
	}{
		{"no-hello", nil, 0},
		{"negotiated-rabin", &defaultSpec, 0},
		{"negotiated-fastcdc", &fastcdc, 0},
		{"no-hello-2-workers", nil, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(4)
			cfg.Shredder.HostWorkers = tc.workers
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := startSession(t, srv)
			spec := defaultSpec
			if tc.negotiate != nil {
				spec = *tc.negotiate
				if _, err := c.Negotiate(spec); err != nil {
					t.Fatal(err)
				}
			}
			eng, err := chunk.New(spec)
			if err != nil {
				t.Fatal(err)
			}
			streams := []struct {
				frameSize int
				data      []byte
			}{
				// One frame per byte is slow over net.Pipe: a prefix only.
				{1, image[:64<<10]},
				{4093, image},
				{64 << 10, image},
				{1 << 20, image},
				{DefaultFrameSize, nil},
			}
			for _, s := range streams {
				name := fmt.Sprintf("frames-%d-bytes-%d", s.frameSize, len(s.data))
				c.frameSize = s.frameSize
				st, err := c.BackupBytes(name, s.data)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var want shardstore.Recipe
				for _, ck := range eng.Split(s.data) {
					want = append(want, sha256.Sum256(s.data[ck.Offset:ck.End()]))
				}
				got, ok := srv.Recipe(name)
				if !ok {
					t.Fatalf("%s: no recipe committed", name)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: recipe has %d chunks, engine Split cuts %d", name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: recipe entry %d differs from the engine's chunk %d", name, i, i)
					}
				}
				if st.Bytes != int64(len(s.data)) || st.Chunks != int64(len(want)) {
					t.Fatalf("%s: stats report %d bytes in %d chunks, want %d in %d",
						name, st.Bytes, st.Chunks, len(s.data), len(want))
				}
			}
		})
	}
}
