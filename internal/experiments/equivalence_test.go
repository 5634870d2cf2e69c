package experiments

import (
	"testing"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/workload"
)

// System-level equivalence for what placement carries and infers on
// realistic workloads: the default scheduler, which refreshes only dirty
// workers' snapshots and does not score a task a failed stage-mate rules out,
// must reproduce core.FullRebuildPlacer (every worker re-read on every pass,
// every task scored against every worker) bit for bit, JCT by JCT, on the
// paper cluster. Run under -race in CI.

// assertSameResult demands bit-identical aggregate metrics and JCT vectors,
// and the same number of passes and of tasks visited: two runs whose pools
// held the same tasks pass by pass.
func assertSameResult(t *testing.T, name string, want, got Result) {
	t.Helper()
	if got.Placement.Passes != want.Placement.Passes || got.Placement.Scanned != want.Placement.Scanned {
		t.Errorf("%s: %d passes, %d task scans != full rebuild %d, %d", name,
			got.Placement.Passes, got.Placement.Scanned, want.Placement.Passes, want.Placement.Scanned)
	}
	if got.Makespan != want.Makespan {
		t.Errorf("%s: makespan %v != full rebuild %v", name, got.Makespan, want.Makespan)
	}
	if got.AvgJCT != want.AvgJCT {
		t.Errorf("%s: avgJCT %v != full rebuild %v", name, got.AvgJCT, want.AvgJCT)
	}
	if got.Eff != want.Eff {
		t.Errorf("%s: efficiency %+v != full rebuild %+v", name, got.Eff, want.Eff)
	}
	if len(got.JCTs) != len(want.JCTs) {
		t.Fatalf("%s: %d JCTs, full rebuild has %d", name, len(got.JCTs), len(want.JCTs))
	}
	for i := range want.JCTs {
		if got.JCTs[i] != want.JCTs[i] {
			t.Errorf("%s: job %d JCT %v != full rebuild %v", name, i, got.JCTs[i], want.JCTs[i])
		}
	}
}

func runEquivalence(t *testing.T, gen func() *workload.Workload, base core.Config) {
	t.Helper()
	runEquivalenceOn(t, gen, base, paperCluster())
}

func runEquivalenceOn(t *testing.T, gen func() *workload.Workload, base core.Config, clusCfg cluster.Config) {
	t.Helper()
	runEquivalenceScenario(t, gen, base, clusCfg, nil)
}

// runEquivalenceScenario runs the pair and returns the default side's
// placement counts. The reference must have scored every task it visited:
// one skipped scan there and the comparison checks the pruning against
// itself.
func runEquivalenceScenario(t *testing.T, gen func() *workload.Workload, base core.Config, clusCfg cluster.Config, scenario func(*core.System)) PlacementCounts {
	t.Helper()
	ref := base
	ref.Placer = core.FullRebuildPlacer{}
	want := runUrsa(gen(), ref, clusCfg, 0, scenario)
	got := runUrsa(gen(), base, clusCfg, 0, scenario)
	assertSameResult(t, "default", want, got)
	if want.Placement.Skipped != 0 {
		t.Errorf("full rebuild skipped %d task scans; the reference must be exhaustive", want.Placement.Skipped)
	}
	return got.Placement
}

// TestEquivalenceTPCH runs a small seeded TPC-H mix under both placers and
// demands bit-identical results.
func TestEquivalenceTPCH(t *testing.T) {
	gen := func() *workload.Workload { return workload.TPCH(6, 5*eventloop.Second, 7) }
	runEquivalence(t, gen, core.Config{})
}

// TestEquivalenceTPCHSRJF repeats the TPC-H equivalence under SRJF ordering,
// whose priorities move with every completion.
func TestEquivalenceTPCHSRJF(t *testing.T) {
	gen := func() *workload.Workload { return workload.TPCH(5, 4*eventloop.Second, 11) }
	runEquivalence(t, gen, core.Config{Policy: core.SRJF})
}

// TestEquivalenceSynthetic covers the §5.3 synthetic setting, where many
// jobs arrive simultaneously and ordering ties are broken purely by rank.
func TestEquivalenceSynthetic(t *testing.T) {
	gen := func() *workload.Workload { return workload.Setting1(4) }
	runEquivalence(t, gen, core.Config{})
}

// TestEquivalenceHetero re-proves exactness at the experiment level on the
// contended heterogeneous testbed, the setting where interference-displaced
// measured rates and the penalty snapshot stress the refresh discipline,
// with the penalty off and on.
func TestEquivalenceHetero(t *testing.T) {
	gen := func() *workload.Workload { return workload.TPCH(4, 10*eventloop.Second, 7) }
	clusCfg := heteroPaperCluster(5, 0.1)
	runEquivalenceOn(t, gen, core.Config{Policy: core.SRJF}, clusCfg)
	runEquivalenceOn(t, gen, core.Config{Policy: core.SRJF, InterferencePenalty: true}, clusCfg)
}

// TestEquivalenceTPCHSaturated is the regime witness pruning exists for: a
// TPC-H mix submitted fast enough that the pool runs hundreds of tasks deep
// over a cluster with no CPU headroom, where most task scans find no worker.
// Both policies, the contended heterogeneous testbed with the interference
// penalty, a run that loses two workers, and machines with 4 GB of
// memory, where tasks fail on the memory gate and a smaller stage-mate fits
// (the one variant here that fails if the witness ignores memory; no shipped
// workload has a stage whose tasks demand different kinds, so that half of
// the predicate is pinned by the pools of core's witness_test.go alone).
// Each variant must have skipped
// most of its scans on the default side (and none on the reference, which
// runEquivalenceScenario checks), so the suite cannot pass by never forming a
// witness.
func TestEquivalenceTPCHSaturated(t *testing.T) {
	gen := func() *workload.Workload { return workload.TPCH(12, eventloop.Second, 3) }
	smallMem := paperCluster()
	smallMem.MemPerMachine /= 32 // 4 GB
	for _, v := range []struct {
		name     string
		cfg      core.Config
		clus     cluster.Config
		scenario func(*core.System)
	}{
		{"ejf", core.Config{}, paperCluster(), nil},
		{"srjf", core.Config{Policy: core.SRJF}, paperCluster(), nil},
		{"hetero+penalty", core.Config{InterferencePenalty: true}, heteroPaperCluster(5, 0.1), nil},
		{"worker-failures", core.Config{}, paperCluster(), failWorkers(2)},
		{"memory-bound", core.Config{}, smallMem, nil},
	} {
		t.Run(v.name, func(t *testing.T) {
			pc := runEquivalenceScenario(t, gen, v.cfg, v.clus, v.scenario)
			if 2*pc.Skipped < pc.Scanned {
				t.Errorf("skipped %d of %d task scans; want most of them, or the pool is not saturated", pc.Skipped, pc.Scanned)
			}
		})
	}
}
