// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload through the real monitoring pipeline in one process: simulated
// eDiaMoND measurements flow through monitor agents and journaled loopback
// TCP into the management server, whose sink feeds the incremental KERT-BN
// scheduler and an observe-only health monitor, and every generation is
// deployed to the inference gateway. It prints every end-to-end metric (or,
// with --trace 1, every per-layer metric) with its unit, checks the
// pipeline's outputs, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its launcher, which builds it:
//
//	bash e2ebench/run.sh --workload ingest-cont --seed 1 --seconds 25 --trace 0
//
// See NOTES.md for the workloads, metrics and layer budget.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// watchdog bounds a whole run: a hung pipeline fails the run instead of
// blocking whoever waits for it.
const watchdog = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: ingest-cont, rebuild-disc or serve-mixed")
		seed    = flag.Uint64("seed", 1, "seed for the generated inputs and query draws")
		seconds = flag.Int("seconds", 20, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1: time every layer and print the per-layer metrics")
	)
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	dir, err := os.MkdirTemp(".bench_build", "e2ebench-")
	if errors.Is(err, os.ErrNotExist) {
		if err = os.MkdirAll(".bench_build", 0o755); err == nil {
			dir, err = os.MkdirTemp(".bench_build", "e2ebench-")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		spec: spec, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		setups: 5, slices: 8, dir: dir, withholdAt: -1,
	}
	if cfg.trace {
		cfg.spanOut = filepath.Join(".bench_build", fmt.Sprintf("e2ebench-spans-%s-%d.json", spec.name, *seed))
	}
	res, err := run(cfg)
	os.RemoveAll(dir)
	if err == nil && len(res.refused) > 0 {
		err = fmt.Errorf("too few samples: %s", strings.Join(res.refused, "; "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d cpu=%q go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	fmt.Printf("workload %s seed %d: %d operations attempted, %d failed\n", spec.name, *seed, res.attempted, res.failed)
	for _, k := range sortedKeys(res.metrics) {
		m := res.metrics[k]
		fmt.Printf("  %-34s %14.4f %s\n", k, m.Value, m.Unit)
	}
	for _, p := range res.problems {
		fmt.Println("FAIL:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.correct() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
