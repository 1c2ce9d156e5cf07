package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The sandbox is a few virtual CPUs of a shared host. When the host
// runs something else on them the guest kernel counts the time as
// "steal" (/proc/stat, in 10 ms ticks), and a wall-clock timing taken
// meanwhile measures the neighbours: bursts that take half the machine
// for seconds are common here, and they moved run medians by 30%. So
// every timing carries the steal that accrued while it was taken, and
// the reported statistics are taken over the quiet ones — the timings
// the hypervisor left alone. A run that finds too few of those falls
// back on its least disturbed timings rather than report nothing.

// stealTicks is the guest's cumulative steal over all CPUs, in
// clock ticks; 0 where the kernel does not report it.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

const (
	tick = 10 * time.Millisecond // USER_HZ is 100 on every Linux the harness runs on
	// quietShare is the share of the machine's capacity the hypervisor
	// may have taken from a timing that still counts as quiet. It lets a
	// long timing (a burst of commits) keep a tick or two; a short one is
	// quiet only if the counter did not move.
	quietShare = 0.01
)

// sample is one timing (a rate or a latency) and how disturbed it was.
type sample struct {
	v      float64
	stolen float64 // share of the machine's capacity stolen while it was taken
	quiet  bool
}

type samples []sample

// stopwatch brackets one timed region.
type stopwatch struct {
	t0     time.Time
	steal0 int64
}

func startWatch() stopwatch {
	w := stopwatch{steal0: stealTicks()} // the read stays outside the timed region
	w.t0 = time.Now()
	return w
}

// stop returns the region's wall time and a sample template carrying
// its disturbance; the caller fills in the value (or several: every
// latency of a burst shares the burst's disturbance).
func (w stopwatch) stop() (time.Duration, sample) {
	d := time.Since(w.t0)
	dt := stealTicks() - w.steal0
	var s sample
	if d > 0 {
		s.stolen = float64(dt) * float64(tick) / (float64(d) * float64(runtime.NumCPU()))
	}
	s.quiet = s.stolen <= quietShare
	return d, s
}

func (s sample) with(v float64) sample { s.v = v; return s }

func (ss samples) values() []float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = s.v
	}
	return vs
}

// quietValues returns the values of the quiet samples; when there are
// fewer than atLeast of them, the atLeast least disturbed samples.
func (ss samples) quietValues(atLeast int) []float64 {
	var vs []float64
	for _, s := range ss {
		if s.quiet {
			vs = append(vs, s.v)
		}
	}
	if len(vs) >= atLeast || len(vs) == len(ss) {
		return vs
	}
	byStolen := append(samples(nil), ss...)
	sort.SliceStable(byStolen, func(i, j int) bool { return byStolen[i].stolen < byStolen[j].stolen })
	return byStolen[:min(atLeast, len(byStolen))].values()
}

func (ss samples) quietCount() (n int) {
	for _, s := range ss {
		if s.quiet {
			n++
		}
	}
	return n
}

func (ss samples) stolen() []float64 {
	vs := make([]float64, len(ss))
	for i, s := range ss {
		vs[i] = s.stolen
	}
	return vs
}
