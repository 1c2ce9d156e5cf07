//go:build race

package ingest

// raceEnabled lets the widest test matrices shed their slowest cells
// under the race detector, where the Rabin scan runs at a few MB/s.
const raceEnabled = true
