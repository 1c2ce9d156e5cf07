// Command bench is the repository's benchmark: one script — bulk
// backup and restore rounds, lone and paired small commits, a
// retention cycle, a restart — run as three workloads against an
// in-process shredderd (ingest.Server on a persist store, loopback
// TCP). Untraced it reports the end-to-end metrics of BENCHMARK.json;
// with -trace 1 it reports one budget line per layer and writes the
// spans behind them to out/. See README.md.
//
//	go run -C bench . -workload full-fastcdc -seed 1 -seconds 32 -trace 0
//	go run -C bench . -aa 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// -seconds, and the default here.
const runSeconds = 32

func main() {
	name := flag.String("workload", "", "workload to run: full-fastcdc, snapshots-dedup or small-commits")
	seed := flag.Uint64("seed", 1, "seed of every generated byte")
	seconds := flag.Float64("seconds", runSeconds, "how long the measured phases run")
	trace := flag.Int("trace", 0, "1: wrap the connection and the backing, record spans, replay each layer, and report the per-layer metrics instead of the end-to-end ones")
	dataRoot := flag.String("data-root", "", "directory the data directories are made in (default: /dev/shm when usable, else the system temp directory)")
	outDir := flag.String("out", "out", "directory for result and trace files")
	aa := flag.Int("aa", 0, "run this many sets of all the workloads (seeds -seed, -seed+1, ...) and print each end-to-end metric's spread against its bound")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case *manifest:
		raw, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(raw)
		return
	case *aa > 0:
		if err := runAA(*aa, *seed, *seconds, *dataRoot); err != nil {
			fatal(err)
		}
		return
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	root, err := pickDataRoot(*dataRoot)
	if err != nil {
		fatal(err)
	}
	res, err := measure(params{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dataRoot: root, outDir: *outDir, shrink: 1, log: os.Stderr})
	if err != nil {
		fatal(err)
	}
	if err := writeResult(res, *outDir); err != nil {
		fatal(err)
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// pickDataRoot chooses where data directories go. The sandbox's block
// device is noisier than the effects the benchmark has to resolve, so
// the default is tmpfs; timings are then the sandbox's, not a device's,
// and device cost is reported as counts (fsyncs, bytes written).
func pickDataRoot(flagValue string) (string, error) {
	candidates := []string{flagValue}
	if flagValue == "" {
		candidates = []string{"/dev/shm", os.TempDir()}
	}
	var last error
	for _, c := range candidates {
		probe, err := os.MkdirTemp(c, "shredbench-probe-*")
		if err == nil {
			_ = os.Remove(probe)
			return c, nil
		}
		last = err
	}
	return "", fmt.Errorf("no usable data root: %w", last)
}

func writeResult(res *result, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	name := "result-" + res.Workload + ".json"
	if res.Traced {
		name = "result-" + res.Workload + "-traced.json"
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(raw, '\n'), 0o644)
}

// manifestJSON renders BENCHMARK.json from the tables in this package,
// so the declared metrics cannot drift from the reported ones.
func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "shredder/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	return append(raw, '\n'), err
}
