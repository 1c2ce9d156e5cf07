package main

import (
	"math"
	"testing"
)

func TestPercentileAndMedian(t *testing.T) {
	var vs []float64
	for i := 1500; i >= 1; i-- {
		vs = append(vs, float64(i))
	}
	if got := percentile(vs, 0.99); got != 1485 { // 15 samples beyond it
		t.Errorf("p99 of 1..1500 = %v", got)
	}
	if got := percentile(vs, 0.5); got != 750 {
		t.Errorf("p50 of 1..1500 = %v", got)
	}
	if got := median(vs); got != 750.5 {
		t.Errorf("median of 1..1500 = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if median(nil) != 0 || percentile(nil, 0.99) != 0 {
		t.Error("no samples must give 0")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8, 16}), (12-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{90, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("two-value spread = %v, want (max-min)/median", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "server:Backup", StartNs: 0, EndNs: 1000},
		{ID: 2, Parent: 1, Name: "persist.append", StartNs: 0, EndNs: 300, Calls: 70, Agg: true},
		{ID: 3, Parent: 1, Name: "persist.barrier", StartNs: 400, EndNs: 600, Calls: 1},
		{ID: 4, Parent: 1, Name: "persist.barrier", StartNs: 500, EndNs: 700, Calls: 1},        // overlaps 3: union is 300
		{ID: 5, Parent: 1, Name: "persist.commit_recipe", StartNs: 900, EndNs: 1100, Calls: 1}, // clipped to 100
		{ID: 6, Parent: 5, Name: "inner", StartNs: 950, EndNs: 1000, Calls: 1},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 1000 - 300 - 300 - 100, 2: 300, 3: 200, 4: 200, 5: 150, 6: 50} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
	// Children that fit: the subtree's self times add up to the root.
	fit := spans[:3]
	if e := subtreeSelfError(fit, selfTimes(fit), 1); e != 0 {
		t.Errorf("fitting subtree has error %v", e)
	}
	// Children that claim more than the parent took show as an error.
	over := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 0, EndNs: 150, Agg: true},
	}
	if e := subtreeSelfError(over, selfTimes(over), 1); math.Abs(e-0.5) > 1e-12 {
		t.Errorf("over-attributed subtree has error %v, want 0.5", e)
	}
}

func TestQuietValues(t *testing.T) {
	ss := samples{
		{v: 1, stolen: 0.30},
		{v: 2, quiet: true},
		{v: 3, stolen: 0.05},
		{v: 4, stolen: 0.004, quiet: true},
		{v: 5, stolen: 0.10},
	}
	eq := func(got, want []float64) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	// Enough quiet samples: only they count, in the order taken.
	if got := ss.quietValues(2); !eq(got, []float64{2, 4}) {
		t.Errorf("quietValues(2) = %v", got)
	}
	// Too few: the least disturbed ones make up the number.
	if got := ss.quietValues(4); !eq(got, []float64{2, 4, 3, 5}) {
		t.Errorf("quietValues(4) = %v", got)
	}
	if got := ss.quietValues(9); len(got) != len(ss) {
		t.Errorf("quietValues(9) = %v, want every sample", got)
	}
	if n := ss.quietCount(); n != 2 {
		t.Errorf("quietCount = %d", n)
	}
	// A region timed on this machine, whether or not its kernel reports
	// steal: the verdict follows the share.
	d, s := startWatch().stop()
	if d < 0 || s.stolen < 0 || s.quiet != (s.stolen <= quietShare) {
		t.Errorf("stopwatch: %v, %+v", d, s)
	}
}
