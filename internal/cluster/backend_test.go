package cluster

import (
	"errors"
	"strings"
	"testing"

	"shredder/internal/dedup"
	"shredder/internal/ingest"
	"shredder/internal/ingest/backendtest"
)

// TestBackendContract runs the Backend suite on the router's back end
// over three in-memory nodes on loopback. Its fault kills node n0.
func TestBackendContract(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) *backendtest.Fixture {
		tc := startNodes(t, 3)
		c := newTestCluster(t, tc, backendtest.Spec)
		return &backendtest.Fixture{
			Backend: backend{c},
			Refcount: func(h dedup.Hash) (n int64) {
				for _, srv := range tc.srvs {
					n += srv.Store().Refcount(h)
				}
				return n
			},
			Stats: func() (sum dedup.Stats) {
				for _, srv := range tc.srvs {
					st := srv.Store().Stats()
					sum.LogicalBytes += st.LogicalBytes
					sum.StoredBytes += st.StoredBytes
					sum.Chunks += st.Chunks
					sum.UniqueChunks += st.UniqueChunks
					sum.IndexHits += st.IndexHits
				}
				return sum
			},
			Fault: func() func(error) bool {
				tc.kill(0)
				return func(err error) bool {
					var ne *NodeError
					var re *ingest.RemoteError
					return errors.As(err, &ne) && ne.Node == "n0" ||
						errors.As(err, &re) && strings.Contains(re.Msg, "node n0 failed")
				}
			},
		}
	})
}
