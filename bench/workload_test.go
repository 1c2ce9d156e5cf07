package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func tiny(t *testing.T, w *workload, seed uint64, trace bool) *result {
	t.Helper()
	p := params{w: w, seed: seed, seconds: 0.2, trace: trace,
		dataRoot: t.TempDir(), outDir: t.TempDir(), shrink: 32}
	res, err := measure(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v, %d of %d operations failed: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

// Every workload runs end to end at a fraction of its size, traced, so
// the wrappers, the replay and the reopen check are all on the path.
func TestWorkloadsEndToEnd(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res := tiny(t, w, 1, true)
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("traced run lacks %s", d.name)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, %d declared", len(res.Metrics), len(perLayer))
			}
			for _, d := range endToEnd {
				if v := res.TracedEndToEnd[d.name].Value; v <= 0 {
					t.Errorf("%s = %v", d.name, v)
				}
			}
			if e := res.Metrics["trace.self_sum_err_pct"].Value; e > 2 {
				t.Errorf("self times miss the operations' wall time by %.1f%%", e)
			}
			raw, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("trace file: %d spans, %v", len(spans), err)
			}
			ids := map[int]bool{}
			for _, s := range spans {
				ids[s.ID] = true
			}
			for _, s := range spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Fatalf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
				}
			}
		})
	}
}

// The count metrics are exact: one seed, run twice, gives the same
// values, and the untraced run reports exactly the declared set.
func TestCountsRepeatForASeed(t *testing.T) {
	t.Parallel()
	w := findWorkload("full-fastcdc")
	a := tiny(t, w, 9, false)
	b := tiny(t, w, 9, false)
	if len(a.Metrics) != len(endToEnd) {
		t.Errorf("untraced run reports %d metrics, %d declared", len(a.Metrics), len(endToEnd))
	}
	for _, name := range []string{"disk_bytes_per_logical_byte", "disk_bytes_per_live_byte"} {
		if a.Metrics[name].Value != b.Metrics[name].Value || a.Metrics[name].Value <= 0 {
			t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

// BENCHMARK.json is generated from this package's tables (-manifest);
// the committed file must be that output, within the contract's limits.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile("../BENCHMARK.json"); err != nil {
		t.Error(err)
	} else if string(got) != string(want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] ||
			(d.better != "higher" && d.better != "lower") {
			t.Errorf("metric %+v breaks the contract", d)
		}
		seen[d.name] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v", d.name, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	for _, d := range perLayer {
		check(d)
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len([]rune(w.why)) > 200 {
			t.Errorf("workload %s breaks the contract (why is %d characters)", w.name, len([]rune(w.why)))
		}
		seen[w.name] = true
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 || len(want) > 64<<10 {
		t.Error("manifest breaks the contract's counts")
	}
}
