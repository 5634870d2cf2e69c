// Command ursa-bench regenerates the paper's tables and figures from the
// simulated reproduction. Run with an experiment id (see -list) or "all".
//
// Usage:
//
//	ursa-bench -list
//	ursa-bench table2
//	ursa-bench -scale 0.1 -seed 7 table2 table4
//	ursa-bench -csv out/ fig4 fig9
//	ursa-bench -workers 4 all
//	ursa-bench -perf BENCH_core.json
//	ursa-bench -guard BENCH_core.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"ursa/internal/experiments"
	"ursa/internal/perf"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale: 1.0 = paper configuration")
	seed := flag.Int64("seed", 1, "workload generation seed")
	csvDir := flag.String("csv", "", "directory to write figure series as CSV")
	workers := flag.Int("workers", 0, "concurrent simulation runs per experiment: 0 = GOMAXPROCS, 1 = serial (results are identical for any value)")
	perfOut := flag.String("perf", "", "measure core hot paths and write the benchmark report JSON to this path, then exit")
	guard := flag.String("guard", "", "re-measure the placement tick and fail if it regressed >20% vs the checked-in report at this path")
	wireOut := flag.String("wire", "", "measure the shuffle data plane and write the wire benchmark report JSON to this path, then exit")
	guardWire := flag.String("guard-wire", "", "re-measure the partition serve paths and fail if the encode-once path regressed >20%, allocates, or lost its >=3x margin over the legacy path, vs the report at this path")
	ingestOut := flag.String("ingest", "", "measure the multi-tenant submission front door at snapshot scale (2000 submitters over a 20000-job standing backlog) and write the ingest benchmark report JSON to this path, then exit")
	guardIngest := flag.String("guard-ingest", "", "re-measure the front door at guard scale and fail if the mean admission batch fell below its floor, p99 ack latency exceeded its bound, or throughput regressed >35% vs the report at this path")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *perfOut != "" {
		if err := writePerf(*perfOut); err != nil {
			fmt.Fprintf(os.Stderr, "ursa-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *guard != "" {
		if err := guardPerf(*guard); err != nil {
			fmt.Fprintf(os.Stderr, "ursa-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *wireOut != "" {
		if err := writeWire(*wireOut); err != nil {
			fmt.Fprintf(os.Stderr, "ursa-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *guardWire != "" {
		if err := guardWirePerf(*guardWire); err != nil {
			fmt.Fprintf(os.Stderr, "ursa-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *ingestOut != "" {
		if err := writeIngest(*ingestOut); err != nil {
			fmt.Fprintf(os.Stderr, "ursa-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *guardIngest != "" {
		if err := guardIngestPerf(*guardIngest); err != nil {
			fmt.Fprintf(os.Stderr, "ursa-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "ID\tPAPER\tDESCRIPTION")
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "%s\t%s\t%s\n", e.ID, e.Paper, e.Desc)
		}
		w.Flush()
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ursa-bench [-scale f] [-seed n] [-csv dir] <experiment-id>... | all")
		fmt.Fprintln(os.Stderr, "run 'ursa-bench -list' to see experiment ids")
		os.Exit(2)
	}
	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}

	opt := experiments.Options{Scale: *scale, Seed: *seed, Workers: *workers}
	for _, id := range ids {
		e, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "ursa-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("== %s (%s, scale %.2f) ==\n", e.Paper, e.ID, *scale)
		rep := e.Run(opt)
		render(rep)
		if *csvDir != "" {
			if err := writeSeries(*csvDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "ursa-bench: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Println()
	}
}

// writePerf regenerates the core benchmark snapshot (BENCH_core.json).
func writePerf(path string) error {
	fmt.Fprintln(os.Stderr, "measuring core hot paths (takes ~10s)...")
	rep := perf.Collect()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	fmt.Printf("placement tick: %.0f ns/op, %d allocs/op, %.0f ticks/s\n",
		rep.PlacementTick.NsPerOp, rep.PlacementTick.AllocsPerOp, rep.PlacementTick.Throughput)
	fmt.Printf("placement tick hetero+penalty: %.0f ns/op, %d allocs/op, %.0f ticks/s\n",
		rep.PlacementTickHetero.NsPerOp, rep.PlacementTickHetero.AllocsPerOp, rep.PlacementTickHetero.Throughput)
	fmt.Printf("eventloop timers: %.1f ns/op-batch/%d, %d allocs/op, %.0f timers/s\n",
		rep.EventLoopTimers.NsPerOp, 1024, rep.EventLoopTimers.AllocsPerOp, rep.EventLoopTimers.Throughput)
	fmt.Printf("table1 serial: %.2f sim-runs/s\n", rep.Table1Serial.Throughput)
	if par := rep.Table1Parallel; par != nil {
		fmt.Printf("table1 parallel: %.2f sim-runs/s on %d procs\n", par.Throughput, par.Workers)
	} else {
		fmt.Println("table1 parallel: not recorded (one CPU: it would be a second serial run)")
	}
	return nil
}

// writeWire regenerates the shuffle data-plane snapshot (BENCH_wire.json).
func writeWire(path string) error {
	fmt.Fprintln(os.Stderr, "measuring shuffle data plane (takes a few seconds)...")
	rep, err := perf.CollectWire()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	fmt.Printf("encode-once serve: %.0f ns/op, %d allocs/op, %.2fM rows/s, %.1f MB/s\n",
		rep.EncodeOnceServe.NsPerOp, rep.EncodeOnceServe.AllocsPerOp,
		rep.EncodeOnceServe.Throughput/1e6, rep.EncodeOnceServe.BytesPerSec/1e6)
	fmt.Printf("legacy serve: %.0f ns/op (%.1fx slower)\n",
		rep.LegacyServe.NsPerOp, rep.LegacyServe.NsPerOp/rep.EncodeOnceServe.NsPerOp)
	fmt.Printf("fetch round trip: %.0f ns/op, %d allocs/op, %.1f MB/s over loopback\n",
		rep.FetchRoundTrip.NsPerOp, rep.FetchRoundTrip.AllocsPerOp, rep.FetchRoundTrip.BytesPerSec/1e6)
	fmt.Printf("spill serve: %.0f ns/op, %.1f MB/s from disk\n",
		rep.SpillServe.NsPerOp, rep.SpillServe.BytesPerSec/1e6)
	return nil
}

// wireSpeedupFloor is the minimum fresh encode-once speedup over the legacy
// encode-per-fetch serve. Both sides are measured on the same machine in the
// same run, so the ratio is hardware-independent — it fails only if the
// zero-copy path genuinely lost its margin.
const wireSpeedupFloor = 3.0

// wireAllocSlack tolerates a few incidental allocations per serve op before
// the guard calls it a leak in the pooled path (map/timer noise on some
// runtimes), without letting a per-contribution regression (>= wireContribs
// allocs) through.
const wireAllocSlack = 4

// guardWirePerf compares fresh serve-path measurements against the checked-in
// wire report: ns/op regression vs the baseline, alloc discipline, and the
// machine-independent encode-once-vs-legacy ratio.
func guardWirePerf(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	base, err := perf.LoadWire(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if base.EncodeOnceServe.NsPerOp <= 0 {
		return fmt.Errorf("%s: no encode_once_serve baseline recorded", path)
	}
	fmt.Fprintln(os.Stderr, "measuring partition serve paths for regression guard...")
	cur, legacy := perf.MeasureWireServe()
	ratio := cur.NsPerOp / base.EncodeOnceServe.NsPerOp
	speedup := legacy.NsPerOp / cur.NsPerOp
	fmt.Printf("encode-once serve: %.0f ns/op now vs %.0f ns/op baseline (%.2fx); %.1fx faster than legacy\n",
		cur.NsPerOp, base.EncodeOnceServe.NsPerOp, ratio, speedup)
	allocCap := base.EncodeOnceServe.AllocsPerOp
	if allocCap < wireAllocSlack {
		allocCap = wireAllocSlack
	}
	if cur.AllocsPerOp > allocCap {
		return fmt.Errorf("encode-once serve allocates: %d allocs/op vs %d allowed",
			cur.AllocsPerOp, allocCap)
	}
	if speedup < wireSpeedupFloor {
		return fmt.Errorf("encode-once serve is only %.1fx faster than the legacy path (floor %.0fx)",
			speedup, wireSpeedupFloor)
	}
	if ratio > 1+guardRegression {
		return fmt.Errorf("encode-once serve regressed %.0f%% (> %.0f%% budget); "+
			"fix the regression or re-baseline with -wire %s",
			100*(ratio-1), 100*guardRegression, path)
	}
	fmt.Println("wire bench guard: ok")
	return nil
}

// writeIngest regenerates the front-door snapshot (BENCH_ingest.json) at
// full scale.
func writeIngest(path string) error {
	fmt.Fprintln(os.Stderr, "measuring submission front door (2000 submitters, takes ~1min)...")
	rep, err := perf.CollectIngest(perf.DefaultIngestOptions)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	printIngest(rep.Batched)
	return nil
}

func printIngest(a perf.IngestArm) {
	fmt.Printf("%d timed jobs / %d submitters over a %d-job backlog in %.1fs = %.0f subs/s; "+
		"ack p50 %.1fms p99 %.1fms; %d queued at end; mean batch %.1f; share err %.3f\n",
		a.Jobs, a.Submitters, a.Prefill, a.Seconds, a.SubsPerSec, a.AckP50Ms, a.AckP99Ms,
		a.QueuedEnd, a.MeanBatch, a.ShareError)
}

// Ingest guard thresholds. The batch floor is structural, so it holds on any
// hardware: with 800 closed-loop submitters every flush finds hundreds of
// submissions parked on the intake (guard-scale runs read 200-320 per
// batch), and a front door that paid one admission pass per submission
// would read 1. The p99 bound is the EXPERIMENTS.md claim re-checked at
// guard scale; the regression budget is wider than the microbenchmark
// guards because a macro benchmark over loopback TCP with thousands of
// goroutines jitters more.
const (
	ingestMeanBatchFloor  = 32.0
	ingestP99BoundMs      = 250.0
	ingestGuardRegression = 0.35
)

// guardIngestPerf re-measures the front door at guard scale and compares
// against the checked-in snapshot.
func guardIngestPerf(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	base, err := perf.LoadIngest(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if base.Batched.SubsPerSec <= 0 {
		return fmt.Errorf("%s: no batched baseline recorded", path)
	}
	fmt.Fprintln(os.Stderr, "measuring submission front door at guard scale (takes a few seconds)...")
	cur, err := perf.CollectIngest(perf.GuardIngestOptions)
	if err != nil {
		return err
	}
	printIngest(cur.Batched)
	if cur.Batched.MeanBatch < ingestMeanBatchFloor {
		return fmt.Errorf("mean admission batch %.1f is below the floor of %.0f at guard scale: the front door stopped batching",
			cur.Batched.MeanBatch, ingestMeanBatchFloor)
	}
	if cur.Batched.AckP99Ms > ingestP99BoundMs {
		return fmt.Errorf("p99 ack latency %.1fms exceeds the %.0fms bound",
			cur.Batched.AckP99Ms, ingestP99BoundMs)
	}
	// Guard scale has fewer jobs per submitter, so compare rates, not times.
	// The snapshot was measured at full scale on the baseline machine; only
	// flag throughput collapse well beyond jitter.
	if cur.Batched.SubsPerSec < base.Batched.SubsPerSec*(1-ingestGuardRegression) {
		return fmt.Errorf("ingest throughput regressed: %.0f subs/s now vs %.0f snapshot (>%.0f%% drop); "+
			"fix the regression or re-baseline with -ingest %s",
			cur.Batched.SubsPerSec, base.Batched.SubsPerSec, 100*ingestGuardRegression, path)
	}
	fmt.Println("ingest bench guard: ok")
	return nil
}

// guardRegression is the tolerated placement_tick slowdown vs the
// checked-in snapshot before the guard fails: benchmarks on shared CI
// hardware jitter, but a >20% ns/op regression on the scheduler's hot path
// is a real change that must either be fixed or deliberately re-baselined
// with -perf.
const guardRegression = 0.20

// guardPerf compares a fresh placement_tick measurement against the
// checked-in benchmark report and fails on a >20% ns/op regression.
func guardPerf(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	base, err := perf.Load(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if base.PlacementTick.NsPerOp <= 0 {
		return fmt.Errorf("%s: no placement_tick baseline recorded", path)
	}
	fmt.Fprintln(os.Stderr, "measuring placement tick for regression guard...")
	cur := perf.MeasurePlacementTick()
	if err := guardTick("placement tick", cur, base.PlacementTick, path); err != nil {
		return err
	}
	// Older snapshots predate the hetero scenario; guard it only once the
	// baseline records it (regenerating with -perf adds it).
	if base.PlacementTickHetero.NsPerOp > 0 {
		fmt.Fprintln(os.Stderr, "measuring hetero placement tick for regression guard...")
		curH := perf.MeasurePlacementTickHetero()
		if err := guardTick("placement tick hetero+penalty", curH, base.PlacementTickHetero, path); err != nil {
			return err
		}
	}
	fmt.Println("bench guard: ok")
	return nil
}

// guardTick applies the shared regression policy to one placement-tick
// scenario: any extra allocation fails, and so does a >20% ns/op slowdown.
func guardTick(name string, cur, base perf.Benchmark, path string) error {
	ratio := cur.NsPerOp / base.NsPerOp
	fmt.Printf("%s: %.0f ns/op now vs %.0f ns/op baseline (%.2fx)\n",
		name, cur.NsPerOp, base.NsPerOp, ratio)
	if cur.AllocsPerOp > base.AllocsPerOp {
		return fmt.Errorf("%s allocates: %d allocs/op vs %d baseline",
			name, cur.AllocsPerOp, base.AllocsPerOp)
	}
	if ratio > 1+guardRegression {
		return fmt.Errorf("%s regressed %.0f%% (> %.0f%% budget); "+
			"fix the regression or re-baseline with -perf %s",
			name, 100*(ratio-1), 100*guardRegression, path)
	}
	return nil
}

func render(rep *experiments.Report) {
	fmt.Println(rep.Title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(rep.Header, "\t"))
	for _, row := range rep.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	for _, n := range rep.Notes {
		fmt.Printf("note: %s\n", n)
	}
}

func writeSeries(dir string, rep *experiments.Report) error {
	if len(rep.Series) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, ts := range rep.Series {
		if ts == nil {
			continue
		}
		safe := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
				return r
			}
			return '_'
		}, name)
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", rep.ID, safe))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := ts.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
