package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA is the noise check: sets of all the workloads, each run a
// fresh process of this same binary (as the benchmark driver runs
// them), each set on its own seed. It prints every end-to-end metric's
// value per set, the spread across sets — (Q3−Q1)/median as the driver
// computes it, (max−min)/median below four sets — and whether that
// spread fits the metric's bound. The same commit on both sides: any
// spread is the machine's and the seeds', not a change's.
func runAA(sets int, seed uint64, seconds float64, dataRoot string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → per set
	for s := 0; s < sets; s++ {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(s), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
			if dataRoot != "" {
				args = append(args, "-data-root", dataRoot)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s\n", s+1, sets, w.name)
			cmd := exec.Command(self, args...)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (seed %d): %w", w.name, seed+uint64(s), err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return fmt.Errorf("%s: last line is not a result: %w", w.name, err)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, v := range line.Metrics {
				values[w.name][name] = append(values[w.name][name], v.Value)
			}
		}
	}
	bad := 0
	for _, w := range workloads {
		fmt.Printf("%s\n", w.name)
		for _, d := range endToEnd {
			vs := values[w.name][d.name]
			spread := quartileSpread(vs)
			verdict := "ok"
			if d.name != "setup_s" && spread > d.bound {
				verdict = "OVER"
				bad++
			}
			var cells []string
			for _, v := range vs {
				cells = append(cells, strconv.FormatFloat(v, 'g', 6, 64))
			}
			fmt.Printf("  %-28s %-5s spread %6.2f%%  bound %4.0f%%  %-4s  [%s]\n",
				d.name, d.unit, 100*spread, 100*d.bound, verdict, strings.Join(cells, " "))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric/workload pairs spread wider than their bound", bad)
	}
	return nil
}
