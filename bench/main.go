// Command bench is the repository's one end-to-end, layer-attributed
// benchmark. It drives an in-process loopback cluster (real TCP, real wire
// protocol) through the real front door, and the discrete-event simulator,
// and prints every metric BENCHMARK.json declares by name with its unit.
//
//	go -C bench run . --workload sched-short --seed 1 --seconds 20 --trace 0
//	go -C bench run . -compare a.jsonl b.jsonl
//
// See README.md in this directory for the workloads, the metrics and how
// they are expected to interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// outDirName is the only place the benchmark writes: span files, journal
// directories of the journaled workload, appended result records.
const outDirName = ".bench_out"

// record is one run as appended to the --out file and read by -compare.
type record struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Env       map[string]any     `json:"env"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	workloadName := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", "", "append this run's record to a JSON-lines file")
	compare := flag.Bool("compare", false, "compare two --out files: bench -compare a.jsonl b.jsonl")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, trace bool, out string, compare bool, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two files")
		}
		return compareFiles(os.Stdout, spec, args[0], args[1])
	}
	if !spec.hasWorkload(workloadName) {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	// One proc would serialise the master, two agents and the clients and
	// record a "parallel" system that never ran in parallel.
	if runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("refusing to run at GOMAXPROCS=%d: the benchmark needs at least 2", runtime.GOMAXPROCS(0))
	}
	outDir := filepath.Join(root, outDirName)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	opts := runOpts{seed: seed, seconds: seconds, warmup: 1500 * time.Millisecond, trace: trace, outDir: outDir, simJobs: simJobs, epochs: liveEpochs}
	var res *runResult
	if w, ok := liveWorkloads[workloadName]; ok {
		res, err = runLive(w, opts)
	} else {
		res, err = runSim(opts)
	}
	if err != nil {
		return err
	}
	if trace {
		isoGeneric(outDir, res.values)
		for _, m := range spec.PerLayer {
			if _, ok := res.values[m.Name]; !ok {
				res.values[m.Name] = 0 // a layer this workload does not touch
			}
		}
	}
	for k, v := range map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit(), "seed": seed, "seconds": seconds, "time": time.Now().UTC().Format(time.RFC3339),
	} {
		res.env[k] = v
	}

	declared := spec.EndToEnd
	if trace {
		declared = spec.PerLayer
	}
	picked, err := pick(declared, res.values)
	if err != nil {
		return err
	}
	rec := record{
		Workload: workloadName, Trace: trace, Correct: res.failed == 0,
		Attempted: res.attempted, Failed: res.failed, Problems: res.problems,
		Metrics: res.values, Env: res.env,
	}
	printReport(rec, declared)
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			return err
		}
	}
	last, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": picked,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !rec.Correct {
		return fmt.Errorf("%d of %d operations failed", rec.Failed, rec.Attempted)
	}
	return nil
}

// printReport writes the human-readable part: the environment the numbers
// were taken in, then one line per declared metric.
func printReport(rec record, declared []metricSpec) {
	keys := make([]string, 0, len(rec.Env))
	for k := range rec.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("workload %s  trace=%v\n", rec.Workload, rec.Trace)
	for _, k := range keys {
		fmt.Printf("  env %-18s %v\n", k, rec.Env[k])
	}
	for _, m := range declared {
		fmt.Printf("  %-34s %14.4f %s\n", m.Name, rec.Metrics[m.Name], m.Unit)
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", rec.Attempted, rec.Failed)
	for _, p := range rec.Problems {
		fmt.Printf("  problem: %s\n", p)
	}
}

func appendRecord(path string, rec record) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
