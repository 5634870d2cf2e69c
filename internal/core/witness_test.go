package core

// Witness pruning (PlaceContext.unplaceableLike, stageScoreOn): the
// predicate case by case, two hand-built pools in which a wrong predicate
// loses a placement, and random pools against the exhaustive reference.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/resource"
)

func est(cpu, net, disk, mem float64) resource.Vector {
	return resource.Vector{resource.CPU: cpu, resource.Net: net, resource.Disk: disk, resource.Mem: mem}
}

func TestUnplaceableLike(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name          string
		witness, task resource.Vector
		ignoreNet     bool
		want          bool // true: ruled out by the witness, not scored
	}{
		{"equal vectors", est(5, 0, 1, 8), est(5, 0, 1, 8), false, true},
		{"same kinds, other sizes, more memory", est(5, 0, 1, 8), est(1, 0, 9, 9), false, true},
		{"less memory than the witness", est(5, 0, 1, 8), est(5, 0, 1, 7), false, false},
		{"witness demands a kind the task does not", est(5, 0, 1, 8), est(5, 0, 0, 8), false, false},
		{"task demands a kind the witness does not", est(5, 0, 0, 8), est(5, 3, 0, 8), false, true},
		{"zero-demand witness rules out everything", est(0, 0, 0, 0), est(0, 2, 0, 0), false, true},
		{"zero-demand witness, zero-demand task", est(0, 0, 0, 0), est(0, 0, 0, 0), false, true},
		{"witness needs memory only, task needs none", est(0, 0, 0, 1), est(0, 0, 0, 0), false, false},
		{"NaN memory on the task", est(5, 0, 0, 8), est(5, 0, 0, nan), false, false},
		{"NaN memory on the witness", est(5, 0, 0, nan), est(5, 0, 0, 8), false, false},
		{"NaN where the witness demands", est(5, 0, 0, 8), est(nan, 0, 0, 8), false, false},
		{"NaN on the witness counts as a demand", est(5, nan, 0, 8), est(5, 0, 0, 8), false, false},
		{"NaN on the witness, task demands that kind", est(5, nan, 0, 8), est(5, 1, 0, 8), false, true},
		{"network demand differs", est(5, 2, 0, 8), est(5, 0, 0, 8), false, false},
		{"network demand differs, IgnoreNetworkDemand", est(5, 2, 0, 8), est(5, 0, 0, 8), true, true},
	} {
		ctx := &PlaceContext{Cfg: &Config{IgnoreNetworkDemand: c.ignoreNet}}
		got := ctx.unplaceableLike(&dag.Task{EstUsage: c.task}, &dag.Task{EstUsage: c.witness})
		if got != c.want {
			t.Errorf("%s: unplaceableLike = %v, want %v", c.name, got, c.want)
		}
	}
}

// handPool is a one-stage pool over two workers whose tasks carry exactly the
// given estimates, in the given order; shape prepares the workers.
func handPool(ests []resource.Vector, shape func(ws []*Worker)) *PlacementBench {
	pb := NewPlacementBench(2, 1, len(ests))
	for i, t := range pb.Pending[0].Tasks {
		t.EstUsage = ests[i]
	}
	shape(pb.Sys.Workers)
	for _, w := range pb.Sys.Workers {
		w.markDirty()
	}
	return pb
}

// assertHandPool requires the default placer to place exactly the tasks in
// want (by position in the stage), as the exhaustive reference does.
func assertHandPool(t *testing.T, mk func() *PlacementBench, want []int) {
	t.Helper()
	ref := mk()
	ref.Configure(fullRebuild)
	refKeys, keys := tickKeys(ref), tickKeys(mk())
	if !slices.Equal(keys, refKeys) {
		t.Fatalf("placed %+v, exhaustive reference %+v", keys, refKeys)
	}
	var got []int
	for _, k := range keys {
		got = append(got, k.task)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("placed tasks %v, want %v", got, want)
	}
}

// TestTickWitnessRespectsMemory lists a stage's tasks in decreasing memory over
// workers with 8 GB and 1 GB free. The largest task fills the first worker
// (it has to fit somewhere, or stageViable, which looks at Tasks[0] only,
// drops the stage); the next two fit nowhere, and the first of them becomes
// the witness; the last two need less than the witness and fit the second
// worker. A witness that ignored memory would rule them out.
func TestTickWitnessRespectsMemory(t *testing.T) {
	gb := float64(resource.GB)
	mk := func() *PlacementBench {
		return handPool([]resource.Vector{
			est(1e6, 0, 0, 8*gb), est(1e6, 0, 0, 6*gb), est(1e6, 0, 0, 4*gb),
			est(1e6, 0, 0, gb/2), est(1e6, 0, 0, gb/4),
		}, func(ws []*Worker) {
			ws[0].Machine.Mem.MustAlloc(ws[0].MemFree() - 8*gb)
			ws[1].Machine.Mem.MustAlloc(ws[1].MemFree() - 1*gb)
		})
	}
	assertHandPool(t, mk, []int{0, 3, 4})
	pb := mk()
	pb.Tick()
	if pb.ctx.skipped != 0 {
		t.Errorf("skipped %d task scans; every later task needs less memory than the witness", pb.ctx.skipped)
	}
}

// TestTickWitnessRespectsKinds spends both workers' disk headroom: the task that
// reads from disk fits nowhere and becomes the witness, its CPU-only
// stage-mates are still placed, and the second disk task is ruled out unscored.
func TestTickWitnessRespectsKinds(t *testing.T) {
	mk := func() *PlacementBench {
		return handPool([]resource.Vector{
			est(1e6, 0, 0, 1e6), est(1e6, 0, 1e6, 1e6), est(1e6, 0, 0, 1e6),
			est(1e6, 0, 2e6, 2e6), est(2e6, 0, 0, 2e6),
		}, func(ws []*Worker) {
			for _, w := range ws {
				w.load[resource.Disk] = 2 * w.sys.Cfg.EPT.Seconds() * w.Rate(resource.Disk)
			}
		})
	}
	assertHandPool(t, mk, []int{0, 2, 4})
	pb := mk()
	pb.Tick()
	// Rank pass and commit pass each rule out the second disk task.
	if pb.ctx.skipped != 2 {
		t.Errorf("skipped %d task scans, want 2", pb.ctx.skipped)
	}
}

// TestTickEquivalenceRandomPools compares the default placer with the
// exhaustive reference on small random pools over partly exhausted workers:
// tasks of one stage differ in which kinds they demand and in memory, workers
// in which dimensions have headroom left, so witnesses of every shape form.
func TestTickEquivalenceRandomPools(t *testing.T) {
	var skipped uint64
	for seed := int64(1); seed <= 300; seed++ {
		mk := func() *PlacementBench {
			rng := rand.New(rand.NewSource(seed))
			pb := NewPlacementBench(4, 3, 6)
			gb := float64(resource.GB)
			for _, ps := range pb.Pending {
				for _, task := range ps.Tasks {
					var e resource.Vector
					for _, k := range resource.MonotaskKinds {
						if rng.Intn(2) == 0 {
							e[k] = 1e6 * float64(1+rng.Intn(50))
						}
					}
					e[resource.Mem] = gb * float64(rng.Intn(5))
					task.EstUsage = e
				}
			}
			ept := pb.Sys.Cfg.EPT.Seconds()
			for _, w := range pb.Sys.Workers {
				if rng.Intn(2) == 0 {
					w.Machine.Cores.MustAlloc(w.Machine.Cores.Free())
					w.load[resource.CPU] = 2 * ept * w.Rate(resource.CPU)
				}
				for _, k := range []resource.Kind{resource.Net, resource.Disk} {
					if rng.Intn(2) == 0 {
						w.load[k] = 2 * ept * w.Rate(k)
					}
				}
				w.Machine.Mem.MustAlloc(w.MemFree() - gb*float64(rng.Intn(4)))
				w.markDirty()
			}
			pb.Configure(func(c *Config) { c.IgnoreNetworkDemand = seed%5 == 0 })
			return pb
		}
		ref, pb := mk(), mk()
		ref.Configure(fullRebuild)
		want, got := tickKeys(ref), tickKeys(pb)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: placed %+v, exhaustive reference %+v", seed, got, want)
		}
		if ref.ctx.skipped != 0 {
			t.Fatalf("seed %d: the reference skipped %d task scans", seed, ref.ctx.skipped)
		}
		skipped += pb.ctx.skipped
	}
	if skipped == 0 {
		t.Fatal("no pool formed a witness that ruled anything out")
	}
}
