package experiments

import (
	"testing"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/workload"
)

// System-level equivalence for placement's carried state on realistic
// workloads: the default scheduler, which refreshes only dirty workers'
// snapshots, must reproduce core.FullRebuildPlacer (every worker re-read on
// every pass) bit for bit, JCT by JCT, on the paper cluster. Run under -race
// in CI.

// assertSameResult demands bit-identical aggregate metrics and JCT vectors.
func assertSameResult(t *testing.T, name string, want, got Result) {
	t.Helper()
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
	ref := base
	ref.Placer = core.FullRebuildPlacer{}
	want := RunUrsa(gen(), ref, clusCfg, 0)
	got := RunUrsa(gen(), base, clusCfg, 0)
	assertSameResult(t, "default", want, got)
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
