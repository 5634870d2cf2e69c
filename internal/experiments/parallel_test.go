package experiments

import (
	"reflect"
	"testing"

	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/workload"
)

// detRuns builds a mixed batch of independent Ursa + baseline runs over a
// small TPC-H workload, the shape every experiment in this package reduces
// to. Each closure constructs its own workload, event loop and cluster, so
// the batch is safe to dispatch across goroutines.
func detRuns(seed int64) []namedRun {
	gen := func() *workload.Workload { return workload.TPCH(12, 5*eventloop.Second, seed) }
	return []namedRun{
		{"Ursa-EJF", func() Result { return RunUrsa(gen(), core.Config{Policy: core.EJF}, paperCluster(), sampleEvery) }},
		{"Ursa-SRJF", func() Result { return RunUrsa(gen(), core.Config{Policy: core.SRJF}, paperCluster(), sampleEvery) }},
		{"Y+S", func() Result { return RunBaseline(gen(), sparkCfg(), paperCluster(), sampleEvery) }},
		{"Y+T", func() Result { return RunBaseline(gen(), tezCfg(), paperCluster(), sampleEvery) }},
	}
}

// TestRunAllDeterministic is the parallel-runner determinism contract: for
// the same Options, runAll must return byte-identical results regardless of
// the worker count — same rows, same JCT vectors, same sampled series, in
// the same (input) order. Workers:1 executes strictly serially and is the
// reference. Run under -race this also checks the runs share no state.
func TestRunAllDeterministic(t *testing.T) {
	serial := runAll(Options{Workers: 1}, detRuns(7))
	for _, workers := range []int{2, 8} {
		parallel := runAll(Options{Workers: workers}, detRuns(7))
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("workers=%d: result %d (%s) differs from serial run",
					workers, i, detRuns(7)[i].name)
			}
		}
	}
}

// TestExperimentsDeterministicAcrossWorkers checks the contract end to end
// through full experiment assembly: a table built from parallel runs must be
// identical to the serially built one, including figure series.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	for _, id := range []string{"table1", "table2", "table6"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		serial := e.Run(Options{Scale: 0.1, Seed: 7, Workers: 1})
		parallel := e.Run(Options{Scale: 0.1, Seed: 7, Workers: 8})
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: parallel report differs from serial report", id)
		}
	}
}

// TestAblationFaultDeterministic: worker failures re-report their victims in
// a fixed order, so two runs of the fault ablation at one seed agree to the
// last digit (System.FailWorker used to re-report in map order).
func TestAblationFaultDeterministic(t *testing.T) {
	opt := Options{Scale: 0.4, Seed: 7, Workers: 1}
	first := AblationFault(opt)
	for i := 0; i < 3; i++ {
		if again := AblationFault(opt); !reflect.DeepEqual(first.Rows, again.Rows) {
			t.Fatalf("run %d differs from the first at the same seed:\n%v\n%v", i+2, first.Rows, again.Rows)
		}
	}
}

// benchTable1 runs Table 1 at full scale with the given worker bound.
func benchTable1(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := Table1(Options{Scale: 1, Seed: 7, Workers: workers})
		if len(rep.Rows) != 2 {
			b.Fatalf("rows = %d, want 2", len(rep.Rows))
		}
	}
}

// BenchmarkExperimentTable1Serial is the pre-fan-out reference: all six
// (system × workload) runs execute back to back on one goroutine.
func BenchmarkExperimentTable1Serial(b *testing.B) { benchTable1(b, 1) }

// BenchmarkExperimentTable1Parallel dispatches the same six runs across
// GOMAXPROCS workers; the wall clock should approach the longest single run.
func BenchmarkExperimentTable1Parallel(b *testing.B) { benchTable1(b, 0) }
