package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"shredder/internal/obs"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint says what machine and what inputs produced a result.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	SHANI      bool   `json:"sha_ni"`
	AVX2       bool   `json:"avx2"`
	DataRoot   string `json:"data_root"`
	FS         string `json:"data_root_fs"`
	Commit     string `json:"git_commit"`
}

// result is one run's full record, written to out/; its Metrics are
// also the last line of standard output.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics are the end-to-end metrics of an untraced run, the
	// per-layer metrics of a traced one. Samples says how many
	// timings were taken of each kind, Quiet how many of them the
	// hypervisor left alone: the medians and percentiles are over those
	// (steal.go). StolenPct is the share of the machine's capacity it
	// took over the whole run.
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	Quiet     map[string]int         `json:"quiet_samples"`
	StolenPct float64                `json:"stolen_pct"`
	// Series are the per-stream timings themselves, in the order taken.
	Series map[string][]float64 `json:"series"`
	Stolen map[string][]float64 `json:"stolen"`
	// TracedEndToEnd repeats the end-to-end figures as the traced run
	// saw them, for reading beside the layers; never a baseline.
	TracedEndToEnd map[string]metricValue `json:"traced_end_to_end,omitempty"`
	TraceFile      string                 `json:"trace_file,omitempty"`
	Machine        fingerprint            `json:"machine"`
	Calib          struct {
		SHABefore     float64 `json:"sha_mbps_before"`
		SHAAfter      float64 `json:"sha_mbps_after"`
		MemmoveBefore float64 `json:"memmove_mbps_before"`
		MemmoveAfter  float64 `json:"memmove_mbps_after"`
	} `json:"calibration"`
}

func newResult(p params) *result {
	res := &result{Workload: p.w.name, Seed: p.seed, Seconds: p.seconds, Traced: p.trace,
		Metrics: map[string]metricValue{}, Samples: map[string]int{}, Quiet: map[string]int{}, Stolen: map[string][]float64{}}
	res.Machine = fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		DataRoot: p.dataRoot, FS: fsType(p.dataRoot), Commit: gitCommit(),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "flags") {
				flags := " " + line + " "
				res.Machine.SHANI = strings.Contains(flags, " sha_ni ")
				res.Machine.AVX2 = strings.Contains(flags, " avx2 ")
				break
			}
		}
	}
	return res
}

func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// gitCommit is the checked-out commit when the run happens inside a
// git work tree, else the revision stamped into the binary, else
// "unknown" (the benchmark driver's checkout is not a repository).
func gitCommit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// registryValues snapshots the daemon's metric registry as family →
// value, label sets summed (histogram series keep their suffixes).
func registryValues(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	out := map[string]float64{}
	if err := reg.WriteJSON(&buf); err != nil {
		return out
	}
	var series map[string]any
	if err := json.Unmarshal(buf.Bytes(), &series); err != nil {
		return out
	}
	for k, v := range series {
		f, ok := v.(float64)
		if !ok {
			continue
		}
		if i := strings.IndexByte(k, '{'); i >= 0 {
			k = k[:i]
		}
		out[k] += f
	}
	return out
}
