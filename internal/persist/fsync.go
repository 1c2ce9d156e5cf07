package persist

import (
	"fmt"
	"strings"
	"time"
)

// FsyncMode selects when the backing forces written data to durable
// media.
type FsyncMode int

const (
	// FsyncAlways fsyncs the WAL (and any dirty container file) at
	// every commit point: each put batch and each recipe commit is
	// durable before the call returns. Crash loses nothing
	// acknowledged, at the cost of one or two fsyncs per batch. With
	// Options.CommitWindow switched on the fsyncs move to shared sync
	// rounds and a stream becomes durable — puts, pins and recipe
	// together — at its recipe commit.
	FsyncAlways FsyncMode = iota
	// FsyncInterval fsyncs dirty files from a background goroutine
	// every Interval. Crash loses at most the last window of
	// acknowledged writes; recovery still lands on a clean record
	// boundary.
	FsyncInterval
	// FsyncNever leaves flushing to the OS page cache. Process crash
	// (as opposed to machine crash) still loses nothing because every
	// commit writes through to the kernel.
	FsyncNever
)

// DefaultFsyncInterval is the FsyncInterval period when none is given.
const DefaultFsyncInterval = time.Second

// FsyncPolicy is a mode plus its interval (meaningful only for
// FsyncInterval; 0 means DefaultFsyncInterval).
type FsyncPolicy struct {
	Mode     FsyncMode
	Interval time.Duration
}

// ParseFsyncPolicy reads the -fsync flag syntax: "always", "never",
// "interval", "interval=500ms", or a bare duration like "250ms" (which
// implies interval mode).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch {
	case s == "always":
		return FsyncPolicy{Mode: FsyncAlways}, nil
	case s == "never":
		return FsyncPolicy{Mode: FsyncNever}, nil
	case s == "interval":
		return FsyncPolicy{Mode: FsyncInterval, Interval: DefaultFsyncInterval}, nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil || d <= 0 {
			return FsyncPolicy{}, fmt.Errorf("persist: bad fsync interval %q", s)
		}
		return FsyncPolicy{Mode: FsyncInterval, Interval: d}, nil
	default:
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return FsyncPolicy{}, fmt.Errorf("persist: fsync policy %q is not always, never, interval[=D], or a duration", s)
		}
		return FsyncPolicy{Mode: FsyncInterval, Interval: d}, nil
	}
}

// String renders the policy in the same syntax ParseFsyncPolicy reads.
func (p FsyncPolicy) String() string {
	switch p.Mode {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		d := p.Interval
		if d == 0 {
			d = DefaultFsyncInterval
		}
		return "interval=" + d.String()
	}
}
