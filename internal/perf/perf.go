// Package perf measures the simulator's core hot paths and renders the
// result as BENCH_core.json, the repository's checked-in performance
// snapshot. The scenarios are shared with the package microbenchmarks
// (core.NewPlacementBench, the eventloop timer churn loop, experiments
// Table 1), so `go test -bench` and this harness always measure the same
// code paths; this harness just packages them behind one command with a
// machine-readable output:
//
//	go run ./cmd/ursa-bench -perf BENCH_core.json
package perf

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"testing"

	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/experiments"
)

// initTesting makes testing.Benchmark usable outside `go test`: Init
// registers the -test.* flags whose defaults (notably benchtime=1s) the
// benchmark driver reads. Calling it twice panics, hence the Once.
var initTesting sync.Once

// Benchmark is one measured scenario.
type Benchmark struct {
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are heap allocation counts/bytes per op.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// Throughput is the scenario's natural rate (see Unit): placement
	// ticks/s, timer events/s, simulation runs/s, or rows/s for the wire
	// scenarios.
	Throughput float64 `json:"throughput"`
	Unit       string  `json:"unit"`
	// BytesPerSec is the payload byte rate for scenarios that move data
	// (the wire report); 0 where not meaningful.
	BytesPerSec float64 `json:"bytes_per_sec,omitempty"`
	// Workers records the concurrency the scenario actually ran with, for
	// scenarios whose result depends on it (omitted when not meaningful).
	Workers int `json:"workers,omitempty"`
}

// Report is the BENCH_core.json document.
type Report struct {
	// Schema names the document layout so downstream tooling can detect
	// incompatible regenerations.
	Schema string `json:"schema"`
	// Command regenerates the file.
	Command   string `json:"command"`
	GoVersion string `json:"go_version"`
	// GoMaxProcs is the process's GOMAXPROCS while the serial scenarios ran;
	// NumCPU is the machine's logical CPU count. The parallel scenario runs
	// at NumCPU (raising GOMAXPROCS for its duration if needed), so the
	// pair documents exactly what "parallel" meant on this machine.
	GoMaxProcs int `json:"go_maxprocs"`
	NumCPU     int `json:"num_cpu"`

	// PlacementTick is one full placement pass over 64 workers × 32 pending
	// stages × 16 tasks (the BenchmarkPlacementTick scenario).
	PlacementTick Benchmark `json:"placement_tick"`
	// PlacementTickLarge is the cluster-scale pass — 1024 workers × 256
	// stages × 16 tasks — with Config.CandidateWorkers = 16 (each task
	// scored against its top 16 candidates); ...LargeExact is the same pool
	// on the exact scan. Their ratio is what the approximation buys.
	PlacementTickLarge      Benchmark `json:"placement_tick_large"`
	PlacementTickLargeExact Benchmark `json:"placement_tick_large_exact"`
	// PlacementTickHetero is the headline pool on a mixed-capacity fleet
	// (a quarter of the workers smaller and contended) with the
	// interference penalty enabled — the flag's hot-path cost, held to the
	// same zero-allocation bar as the homogeneous tick.
	PlacementTickHetero Benchmark `json:"placement_tick_hetero"`
	// EventLoopTimers is schedule+dispatch of pooled timers in 1024-event
	// batches (the BenchmarkEventLoopTimers scenario).
	EventLoopTimers Benchmark `json:"eventloop_timers"`
	// Table1Serial and Table1Parallel run the full Table 1 experiment (six
	// independent simulation runs) with Workers=1 and Workers=NumCPU.
	// Table1Parallel is absent from a report collected on a one-CPU
	// machine, where it would be a second serial measurement.
	Table1Serial   Benchmark  `json:"experiment_table1_serial"`
	Table1Parallel *Benchmark `json:"experiment_table1_parallel,omitempty"`
}

// measure converts a testing.BenchmarkResult into a Benchmark, deriving the
// throughput from opsPerIter operations happening inside each benchmark op.
func measure(fn func(b *testing.B), opsPerIter float64, unit string) Benchmark {
	r := testing.Benchmark(fn)
	ns := float64(r.NsPerOp())
	var tput float64
	if ns > 0 {
		tput = opsPerIter * 1e9 / ns
	}
	return Benchmark{
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Throughput:  tput,
		Unit:        unit,
	}
}

// placementTickBench is the shared scenario body for the placement_tick
// family: a saturated pool at the given scale with Config.CandidateWorkers
// = k (0: the exact scan). Exported via MeasurePlacementTick for the bench
// guard.
func placementTickBench(workers, stages, tasks, k int) func(b *testing.B) {
	return func(b *testing.B) {
		pb := core.NewPlacementBench(workers, stages, tasks)
		pb.Configure(func(c *core.Config) { c.CandidateWorkers = k })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pb.Tick() == 0 {
				b.Fatal("no placements")
			}
		}
	}
}

// MeasurePlacementTick re-measures only the headline placement_tick scenario
// (64 workers × 32 stages × 16 tasks, exact scan). The bench guard uses it
// to compare the current tree against the checked-in BENCH_core.json without
// paying for the full Collect run.
func MeasurePlacementTick() Benchmark {
	initTesting.Do(testing.Init)
	return measure(placementTickBench(64, 32, 16, 0), 1, "ticks/s")
}

// placementTickHeteroBench is the mixed-capacity, penalty-enabled variant of
// the headline scenario: the snapshot carries heterogeneous capacities and
// interference-displaced measured rates, and scoring pays the penalty
// multiply on every candidate.
func placementTickHeteroBench(workers, stages, tasks int) func(b *testing.B) {
	return func(b *testing.B) {
		pb := core.NewPlacementBenchHetero(workers, stages, tasks)
		pb.Configure(func(c *core.Config) { c.InterferencePenalty = true })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pb.Tick() == 0 {
				b.Fatal("no placements")
			}
		}
	}
}

// MeasurePlacementTickHetero re-measures only the placement_tick_hetero
// scenario, for the bench guard.
func MeasurePlacementTickHetero() Benchmark {
	initTesting.Do(testing.Init)
	return measure(placementTickHeteroBench(64, 32, 16), 1, "ticks/s")
}

// Load parses a BENCH_core.json document.
func Load(r io.Reader) (*Report, error) {
	rep := &Report{}
	if err := json.NewDecoder(r).Decode(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// atFullProcs runs fn with GOMAXPROCS raised to the machine's CPU count,
// restoring the previous setting afterwards. Earlier snapshots recorded the
// "parallel" Table 1 scenario while GOMAXPROCS was pinned low, silently
// measuring a serial run; forcing NumCPU (and recording it) makes the
// parallel number mean what it says.
func atFullProcs(fn func()) {
	n := runtime.NumCPU()
	prev := runtime.GOMAXPROCS(0)
	if n > prev {
		runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(prev)
	}
	fn()
}

// Collect runs every scenario and assembles the report. It takes on the
// order of ten seconds: the experiment scenarios dominate.
func Collect() *Report {
	initTesting.Do(testing.Init)
	rep := &Report{
		Schema:     "ursa-bench-core/v2",
		Command:    "go run ./cmd/ursa-bench -perf BENCH_core.json",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	rep.PlacementTick = measure(placementTickBench(64, 32, 16, 0), 1, "ticks/s")
	rep.PlacementTickHetero = measure(placementTickHeteroBench(64, 32, 16), 1, "ticks/s")
	rep.PlacementTickLargeExact = measure(placementTickBench(1024, 256, 16, 0), 1, "ticks/s")
	rep.PlacementTickLarge = measure(placementTickBench(1024, 256, 16, 16), 1, "ticks/s")

	const timerBatch = 1024
	rep.EventLoopTimers = measure(func(b *testing.B) {
		loop := eventloop.New()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < timerBatch; k++ {
				loop.After(eventloop.Duration(k%97)*eventloop.Millisecond, func() {})
			}
			loop.Run()
		}
	}, timerBatch, "timers/s")

	table1 := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := experiments.Table1(experiments.Options{Scale: 1, Seed: 7, Workers: workers})
				if len(rep.Rows) != 2 {
					b.Fatal("unexpected table shape")
				}
			}
		}
	}
	// Table 1 is six independent simulation runs per op. The parallel
	// scenario requests Workers=NumCPU explicitly (not 0 = GOMAXPROCS) and
	// runs with GOMAXPROCS raised to match, so the recorded concurrency is
	// the machine's, not whatever the process happened to be pinned to.
	rep.Table1Serial = measure(table1(1), 6, "sim-runs/s")
	rep.Table1Serial.Workers = 1
	if runtime.NumCPU() >= 2 {
		atFullProcs(func() {
			par := measure(table1(runtime.NumCPU()), 6, "sim-runs/s")
			par.Workers = runtime.NumCPU()
			rep.Table1Parallel = &par
		})
	}
	return rep
}

// WriteJSON renders the report with stable indentation and a trailing
// newline, suitable for checking in.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
