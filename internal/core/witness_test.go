package core

// Witness pruning (failTable, stageScoreOn): the predicate case by case,
// hand-built pools in which a wrong predicate loses a placement or a second
// failure has to settle what the first cannot, and random pools against the
// exhaustive reference.

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

// TestFailTable records one failed task in an empty table and asks whether
// the table rules a second one out.
func TestFailTable(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name         string
		failed, task resource.Vector
		ignoreNet    bool
		want         bool // true: ruled out by the recorded failure, not scored
	}{
		{"equal vectors", est(5, 0, 1, 8), est(5, 0, 1, 8), false, true},
		{"same kinds, other sizes, more memory", est(5, 0, 1, 8), est(1, 0, 9, 9), false, true},
		{"less memory than the failed task", est(5, 0, 1, 8), est(5, 0, 1, 7), false, false},
		{"failed task demands a kind the task does not", est(5, 0, 1, 8), est(5, 0, 0, 8), false, false},
		{"task demands a kind the failed task does not", est(5, 0, 0, 8), est(5, 3, 0, 8), false, true},
		{"zero-demand failure rules out everything", est(0, 0, 0, 0), est(0, 2, 0, 0), false, true},
		{"zero-demand failure, zero-demand task", est(0, 0, 0, 0), est(0, 0, 0, 0), false, true},
		{"failed task needs memory only, task needs none", est(0, 0, 0, 1), est(0, 0, 0, 0), false, false},
		{"NaN memory on the task", est(5, 0, 0, 8), est(5, 0, 0, nan), false, false},
		{"NaN memory on the failed task", est(5, 0, 0, nan), est(5, 0, 0, 8), false, false},
		{"NaN where the failed task demands", est(5, 0, 0, 8), est(nan, 0, 0, 8), false, false},
		{"NaN on the failed task, task does not demand that kind", est(5, nan, 0, 8), est(5, 0, 0, 8), false, false},
		// The one-witness predicate this table replaced counted a NaN on the
		// witness as a demand and ruled this task out; a task with a NaN
		// estimate is not recorded at all, so the answer is "score it", the
		// safe direction.
		{"NaN on the failed task, task demands that kind", est(5, nan, 0, 8), est(5, 1, 0, 8), false, false},
		{"network demand differs", est(5, 2, 0, 8), est(5, 0, 0, 8), false, false},
		{"network demand differs, IgnoreNetworkDemand", est(5, 2, 0, 8), est(5, 0, 0, 8), true, true},
	} {
		ctx := &PlaceContext{Cfg: &Config{IgnoreNetworkDemand: c.ignoreNet}}
		var fails failTable
		for m := range fails {
			fails[m] = math.Inf(1)
		}
		fails.record(ctx.demandMask(&dag.Task{EstUsage: c.failed}), c.failed[resource.Mem])
		got := fails.rulesOut(ctx.demandMask(&dag.Task{EstUsage: c.task}), c.task[resource.Mem])
		if got != c.want {
			t.Errorf("%s: rulesOut = %v, want %v", c.name, got, c.want)
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
// want (by position in the stage), as the exhaustive reference does, and to
// settle exactly skipped task scans without scoring (rank and commit pass
// together).
func assertHandPool(t *testing.T, mk func() *PlacementBench, want []int, skipped uint64) {
	t.Helper()
	ref, pb := mk(), mk()
	ref.Configure(fullRebuild)
	refKeys, keys := tickKeys(ref), tickKeys(pb)
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
	if pb.ctx.skipped != skipped || ref.ctx.skipped != 0 {
		t.Errorf("skipped %d task scans (reference %d), want %d (reference 0)", pb.ctx.skipped, ref.ctx.skipped, skipped)
	}
}

// TestTickWitnessRespectsMemory lists a stage's tasks in decreasing memory over
// workers with 8 GB and 1 GB free. The largest task fills the first worker
// (it has to fit somewhere, or stageViable, which looks at Tasks[0] only,
// drops the stage); the next two fit nowhere, each needing less than every
// failure before it, so both are scored; the last two need less again and fit
// the second worker. A table that ignored memory would rule them out.
func TestTickWitnessRespectsMemory(t *testing.T) {
	assertHandPool(t, memoryPool(8, 6, 4, 0.5, 0.25), []int{0, 3, 4}, 0)
}

// TestTickWitnessSecondFailureMemory puts a 5 GB task behind the 6 GB and 4 GB
// failures of the pool above: the first failure does not rule it out (5 < 6),
// the second does, in the rank pass and again in the commit pass.
func TestTickWitnessSecondFailureMemory(t *testing.T) {
	assertHandPool(t, memoryPool(8, 6, 4, 5, 0.5), []int{0, 4}, 2)
}

// memoryPool is a stage of CPU-only tasks needing the given GB of memory,
// over workers with 8 GB and 1 GB free.
func memoryPool(memGB ...float64) func() *PlacementBench {
	gb := float64(resource.GB)
	ests := make([]resource.Vector, len(memGB))
	for i, m := range memGB {
		ests[i] = est(1e6, 0, 0, m*gb)
	}
	return func() *PlacementBench {
		return handPool(ests, func(ws []*Worker) {
			ws[0].Machine.Mem.MustAlloc(ws[0].MemFree() - 8*gb)
			ws[1].Machine.Mem.MustAlloc(ws[1].MemFree() - 1*gb)
		})
	}
}

// exhaustDisk queues more disk work on every worker than one EPT drains.
func exhaustDisk(ws []*Worker) {
	for _, w := range ws {
		w.load[resource.Disk] = 2 * w.sys.Cfg.EPT.Seconds() * w.Rate(resource.Disk)
	}
}

// TestTickWitnessRespectsKinds spends both workers' disk headroom: the task that
// reads from disk fits nowhere and is recorded, its CPU-only stage-mates are
// still placed, and the second disk task is ruled out unscored, in the rank
// pass and again in the commit pass.
func TestTickWitnessRespectsKinds(t *testing.T) {
	mk := func() *PlacementBench {
		return handPool([]resource.Vector{
			est(1e6, 0, 0, 1e6), est(1e6, 0, 1e6, 1e6), est(1e6, 0, 0, 1e6),
			est(1e6, 0, 2e6, 2e6), est(2e6, 0, 0, 2e6),
		}, exhaustDisk)
	}
	assertHandPool(t, mk, []int{0, 2, 4}, 2)
}

// TestTickWitnessSecondFailureKinds leaves both workers no disk headroom and
// 1.5 GB of memory. The first task places (stageViable needs that). The
// {cpu,disk} task at 1 GB fails on disk, the {cpu} task at 2 GB on memory.
// The {cpu,net} task at 3 GB does not demand disk, so the first failure says
// nothing about it; the second, whose one kind it demands and whose memory it
// exceeds, rules it out in both passes.
func TestTickWitnessSecondFailureKinds(t *testing.T) {
	gb := float64(resource.GB)
	mk := func() *PlacementBench {
		return handPool([]resource.Vector{
			est(1e6, 0, 0, gb/2), est(1e6, 0, 1e6, 1*gb), est(1e6, 0, 0, 2*gb), est(1e6, 1e6, 0, 3*gb),
		}, func(ws []*Worker) {
			exhaustDisk(ws)
			for _, w := range ws {
				w.Machine.Mem.MustAlloc(w.MemFree() - 1.5*gb)
			}
		})
	}
	assertHandPool(t, mk, []int{0}, 2)
}

// TestTickEquivalenceRandomPools compares the default placer with the
// exhaustive reference on small random pools over partly exhausted workers:
// tasks of one stage differ in which kinds they demand and in memory, workers
// in which dimensions have headroom left, so failures of every shape are
// recorded, several to a scan.
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
		t.Fatal("no pool recorded a failure that ruled anything out")
	}
}
