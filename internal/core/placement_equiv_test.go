package core

// Equivalence suite for what placement carries and infers: Algorithm 1 as
// the scheduler runs it (snapshots refreshed for dirty workers only, tasks a
// failed stage-mate rules out not scored) must produce placements
// bit-identical to FullRebuildPlacer, which re-reads every worker and scores
// every task against every worker on every pass, at tick granularity on the
// bench fixtures and at system granularity on full simulated runs (including
// a worker failure). witness_test.go holds the pools built to break a wrong
// pruning rule. The top-K approximation is pinned separately: where it
// is an exact scan, that it is deterministic, and that it starves nothing.

import (
	"testing"

	"ursa/internal/eventloop"
)

// placeKey is a comparable projection of one placement.
type placeKey struct {
	stage  int
	task   int
	worker int
}

func tickKeys(pb *PlacementBench) []placeKey {
	pls := pb.TickPlacements()
	keys := make([]placeKey, len(pls))
	for i, pl := range pls {
		keys[i] = placeKey{stage: pl.Stage.Stage.ID, task: pl.Task.ID, worker: pl.Worker.ID}
	}
	return keys
}

// assertSameTicks drives both fixtures for several ticks and requires
// identical placement sequences.
func assertSameTicks(t *testing.T, name string, exact, variant *PlacementBench, ticks int) {
	t.Helper()
	for tick := 0; tick < ticks; tick++ {
		want := tickKeys(exact)
		got := tickKeys(variant)
		if len(want) == 0 {
			t.Fatalf("%s: tick %d placed nothing; fixture not exercising the hot path", name, tick)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: tick %d placement count %d != exact %d", name, tick, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: tick %d placement %d = %+v, exact %+v", name, tick, i, got[i], want[i])
			}
		}
	}
}

// fullRebuild installs the reference placer on a fixture or a config.
func fullRebuild(c *Config) { c.Placer = FullRebuildPlacer{} }

func TestTickEquivalence(t *testing.T) {
	exact := NewPlacementBench(48, 24, 8)
	exact.Configure(fullRebuild)
	assertSameTicks(t, "default", exact, NewPlacementBench(48, 24, 8), 6)
	exact = saturatedBench()
	exact.Configure(fullRebuild)
	assertSameTicks(t, "saturated", exact, saturatedBench(), 3)
}

// TestTickTopKIndexGate pins where CandidateWorkers is an approximation and where
// it is not: the candidate index is built only for 0 < K < W, so K ≥ W is the
// exact scan (same placements, no index), and K < W goes through the index.
func TestTickTopKIndexGate(t *testing.T) {
	for _, k := range []int{0, 48, 1 << 20} {
		exact := NewPlacementBench(48, 24, 8)
		exact.Configure(fullRebuild)
		topk := NewPlacementBench(48, 24, 8)
		topk.Configure(func(c *Config) { c.CandidateWorkers = k })
		assertSameTicks(t, "K>=W", exact, topk, 4)
		if topk.ctx.useIdx || topk.ctx.idxValid {
			t.Fatalf("CandidateWorkers=%d on 48 workers built a candidate index", k)
		}
	}
	topk := NewPlacementBench(48, 24, 8)
	topk.Configure(func(c *Config) { c.CandidateWorkers = 47 })
	topk.Tick()
	if !topk.ctx.useIdx || !topk.ctx.idxValid {
		t.Fatal("CandidateWorkers=47 on 48 workers did not build a candidate index")
	}
}

// TestTickTopKSmallDeterministic pins down that the approximate K < W path
// is itself deterministic (two identical fixtures agree tick for tick) and
// still saturates the pool.
func TestTickTopKSmallDeterministic(t *testing.T) {
	mk := func() *PlacementBench {
		pb := NewPlacementBench(48, 24, 8)
		pb.Configure(func(c *Config) { c.CandidateWorkers = 8 })
		return pb
	}
	a, b := mk(), mk()
	for tick := 0; tick < 6; tick++ {
		ka, kb := tickKeys(a), tickKeys(b)
		if len(ka) == 0 {
			t.Fatal("top-K path placed nothing")
		}
		if len(ka) != len(kb) {
			t.Fatalf("tick %d: run A placed %d, run B %d", tick, len(ka), len(kb))
		}
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("tick %d placement %d differs: %+v vs %+v", tick, i, ka[i], kb[i])
			}
		}
	}
}

// TestTickEquivalenceHetero re-proves exactness on a mixed-capacity cluster
// with interference-displaced measured rates, the setting the penalty
// snapshot must survive, with the interference penalty both off and on.
func TestTickEquivalenceHetero(t *testing.T) {
	for _, penalty := range []bool{false, true} {
		name := "penalty-off"
		if penalty {
			name = "penalty-on"
		}
		exact := NewPlacementBenchHetero(48, 24, 8)
		exact.Configure(func(c *Config) { c.InterferencePenalty = penalty; fullRebuild(c) })
		variant := NewPlacementBenchHetero(48, 24, 8)
		variant.Configure(func(c *Config) { c.InterferencePenalty = penalty })
		assertSameTicks(t, name, exact, variant, 6)
	}
}

// runSystem executes n shuffle jobs (optionally killing a worker mid-run)
// under the given config and returns each job's finish time. Bit-identical
// scheduling decisions imply bit-identical finish times.
func runSystem(t *testing.T, cfg Config, n int, failAt eventloop.Duration) []eventloop.Time {
	t.Helper()
	loop, clus := testCluster(4)
	sys := NewSystem(loop, clus, cfg)
	jobs := submitN(t, sys, n, eventloop.Second/2)
	if failAt > 0 {
		loop.After(failAt, func() { sys.FailWorker(2) })
	}
	loop.Run()
	if !sys.AllDone() {
		t.Fatal("jobs did not finish")
	}
	out := make([]eventloop.Time, len(jobs))
	for i, j := range jobs {
		out[i] = j.Finished
	}
	return out
}

// TestSystemEquivalence runs full simulations and demands bit-identical
// job finish times between the default scheduler and the full rebuild,
// under both ordering policies and across a worker failure (which exercises
// the dirty marking in fail/abort paths).
func TestSystemEquivalence(t *testing.T) {
	scenarios := []struct {
		name   string
		policy Policy
		failAt eventloop.Duration
	}{
		{"ejf", EJF, 0},
		{"srjf", SRJF, 0},
		{"ejf-fault", EJF, 2 * eventloop.Second},
	}
	for _, sc := range scenarios {
		want := runSystem(t, Config{Policy: sc.policy, Placer: FullRebuildPlacer{}}, 6, sc.failAt)
		got := runSystem(t, Config{Policy: sc.policy}, 6, sc.failAt)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: job %d finished at %v, full rebuild %v", sc.name, i, got[i], want[i])
			}
		}
	}
}

// TestSystemEquivalenceHetero runs full simulations on a mixed-capacity
// cluster (one machine contended) and demands bit-identical job finish
// times between the default scheduler and the full rebuild, with the
// interference penalty off and on.
func TestSystemEquivalenceHetero(t *testing.T) {
	run := func(cfg Config) []eventloop.Time {
		t.Helper()
		loop, clus := heteroTestCluster(3, 1, 0.5)
		sys := NewSystem(loop, clus, cfg)
		jobs := submitN(t, sys, 6, eventloop.Second/2)
		loop.Run()
		if !sys.AllDone() {
			t.Fatal("jobs did not finish")
		}
		out := make([]eventloop.Time, len(jobs))
		for i, j := range jobs {
			out[i] = j.Finished
		}
		return out
	}
	for _, penalty := range []bool{false, true} {
		want := run(Config{InterferencePenalty: penalty, Placer: FullRebuildPlacer{}})
		got := run(Config{InterferencePenalty: penalty})
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("penalty=%v: job %d finished at %v, full rebuild %v", penalty, i, got[i], want[i])
			}
		}
	}
}

// TestSystemTopKSmallCompletes checks that the approximate K < W candidate
// path still drives full workloads to completion (no task starves because
// its viable worker sits outside the candidate set forever).
func TestSystemTopKSmallCompletes(t *testing.T) {
	cfg := Config{CandidateWorkers: 2} // 4 workers: genuinely restrictive
	times := runSystem(t, cfg, 6, 0)
	for i, at := range times {
		if at <= 0 {
			t.Errorf("job %d never finished (at=%v)", i, at)
		}
	}
}
