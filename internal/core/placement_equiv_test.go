package core

// Equivalence suite for what placement infers: Algorithm 1 as the scheduler
// runs it (on a context reused across passes, tasks a failed stage-mate rules
// out not scored) must produce placements bit-identical to FullRebuildPlacer,
// which scores every task against every worker on every pass, at tick
// granularity on the
// bench fixtures and at system granularity on full simulated runs (including
// a worker failure). witness_test.go holds the pools built to break a wrong
// pruning rule, and TestTickGolden pins the placements themselves, which no
// comparison between two placers that share the scan can.

import (
	"fmt"
	"hash/fnv"
	"runtime"
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
	pruned := saturatedBench()
	assertSameTicks(t, "saturated", exact, pruned, 3)
	// The comparison above means little if no witness ever forms: on this
	// fixture the default pass must settle most task scans without scoring.
	if 2*pruned.ctx.skipped < pruned.ctx.scanned {
		t.Errorf("saturated: default pass skipped %d of %d task scans; the fixture should skip most", pruned.ctx.skipped, pruned.ctx.scanned)
	}
}

// TestTickGolden pins six ticks of the three fixtures the allocation test
// runs to recorded placements (their count and an FNV-64a hash of every
// (stage, task, worker) in order). Every other test in this file compares the
// default placer with FullRebuildPlacer, and both call the same scoreTask,
// bestWorkerFor and incVec: an edit there moves the two alike and only a
// recorded value notices. Recorded on amd64 at 3ca3686, before the scan was
// rewritten (the hetero fixture at 467eaeb, the last commit with a second
// placement score, scored without it), and checked on amd64 only: an architecture whose compiler fuses
// multiply-add rounds F(t,w) differently and may break ties differently. A
// change that means to move placements re-records from the failure message.
func TestTickGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("placement goldens are recorded on amd64 (no fused multiply-add in F)")
	}
	for _, c := range []struct {
		name   string
		pb     *PlacementBench
		placed int
		hash   uint64
	}{
		{"uniform", NewPlacementBench(64, 32, 16), 1746, 0xfb977cb317f82f9f},
		{"hetero", heteroBench(), 1608, 0xf5b3083322023d35},
		{"saturated", saturatedBench(), 48, 0x785b53c17cc7491d},
	} {
		h := fnv.New64a()
		placed := 0
		for tick := 0; tick < 6; tick++ {
			keys := tickKeys(c.pb)
			placed += len(keys)
			for _, k := range keys {
				fmt.Fprintf(h, "%d/%d/%d;", k.stage, k.task, k.worker)
			}
			fmt.Fprint(h, "|")
		}
		if placed != c.placed || h.Sum64() != c.hash {
			t.Errorf("%s: placements moved: %d, %#x; recorded %d, %#x", c.name, placed, h.Sum64(), c.placed, c.hash)
		}
	}
}

// TestTickEquivalenceHetero re-proves exactness on a mixed-capacity cluster
// with interference-displaced measured rates.
func TestTickEquivalenceHetero(t *testing.T) {
	exact := NewPlacementBenchHetero(48, 24, 8)
	exact.Configure(fullRebuild)
	variant := NewPlacementBenchHetero(48, 24, 8)
	assertSameTicks(t, "hetero", exact, variant, 6)
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
// the fail/abort paths).
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
// times between the default scheduler and the full rebuild.
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
	want := run(Config{Placer: FullRebuildPlacer{}})
	got := run(Config{})
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("job %d finished at %v, full rebuild %v", i, got[i], want[i])
		}
	}
}
