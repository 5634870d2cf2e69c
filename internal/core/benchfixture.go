package core

import (
	"fmt"
	"slices"

	"ursa/internal/cluster"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// PlacementBench is a synthetic fixture for benchmarking the placement hot
// path in isolation: a pool of pending stages over a cluster of workers,
// scored and planned by a Placer exactly as one scheduler tick would. The
// workers of NewPlacementBench and NewPlacementBenchHetero are idle, so every
// task of the pool finds a worker until the pass has used the headroom up;
// NewPlacementBenchSaturated is the opposite regime, the one a loaded
// simulation spends its time in, where most tasks find none. A Tick does not
// consume the pool (the scheduler removes placed tasks separately), so
// repeated Ticks measure a uniform workload.
//
// It is exported so the core microbenchmarks and the end-to-end harness's
// isolated measurements (bench/iso.go) share one scenario definition.
type PlacementBench struct {
	Sys     *System
	Pending []*PendingStage

	ctx *PlaceContext
}

// benchClusterConfig is the uniform hardware shape the fixtures share.
func benchClusterConfig(nWorkers int) cluster.Config {
	return cluster.Config{
		Machines:           nWorkers,
		CoresPerMachine:    8,
		MemPerMachine:      32 * resource.GB,
		NetBandwidth:       1.25e9,
		DiskBandwidth:      2e8,
		CoreRate:           1e8,
		NetPerFlowFraction: 0.75,
	}
}

// NewPlacementBench builds a pool of nStages pending stages with
// tasksPerStage estimated tasks each, over nWorkers workers. Stage demand
// profiles rotate through CPU-, network- and disk-dominant mixes so every
// resource dimension of F(t,w) is exercised.
func NewPlacementBench(nWorkers, nStages, tasksPerStage int) *PlacementBench {
	return newPlacementBench(benchClusterConfig(nWorkers), nStages, tasksPerStage)
}

// NewPlacementBenchHetero is the mixed-capacity variant: three quarters of
// the workers keep the uniform shape, the rest are smaller (half the cores,
// half the memory, a slower declared core rate) and run at half their
// declared rate to hidden contention. Every worker's monitors are fed one
// window of observations at its *effective* rates, so the snapshot the tick
// scores against carries realistic heterogeneous, interference-displaced
// measurements.
func NewPlacementBenchHetero(nWorkers, nStages, tasksPerStage int) *PlacementBench {
	slow := nWorkers / 4
	if slow < 1 {
		slow = 1
	}
	cfg := benchClusterConfig(nWorkers)
	cfg.Profiles = []cluster.MachineProfile{
		{Count: nWorkers - slow},
		{Count: slow, Cores: 4, Mem: 16 * resource.GB, CoreRate: 5e7, Contention: 0.5},
	}
	pb := newPlacementBench(cfg, nStages, tasksPerStage)
	loop := pb.Sys.Loop
	for _, w := range pb.Sys.Workers {
		m := w.Machine
		w.rates[resource.CPU].sample(m.CoreRate(), 1)
		w.rates[resource.Net].sample(m.NetBandwidth()*cfg.NetPerFlowFraction, 1)
		w.rates[resource.Disk].sample(m.DiskBandwidth(), 1)
	}
	loop.RunUntil(eventloop.Time(pb.Sys.Cfg.RateWindow))
	pb.ctx.Now = loop.Now()
	return pb
}

// NewPlacementBenchSaturated is the deep pool over a busy cluster: all but
// one worker in ten (at least one) have every core taken and more CPU work
// queued than one EPT drains, so D_cpu = 0 there and a task that demands CPU,
// as every task of the pool does, is rejected by them. The few idle workers
// host what they can and fill up within the pass; everything after that is
// scored against every worker and placed nowhere, unless a failed stage-mate
// already rules it out (failTable). Task memory varies within a stage, so
// some tasks need less than every stage-mate that failed before them and are
// scored regardless.
func NewPlacementBenchSaturated(nWorkers, nStages, tasksPerStage int) *PlacementBench {
	pb := NewPlacementBench(nWorkers, nStages, tasksPerStage)
	idle := nWorkers / 10
	if idle < 1 {
		idle = 1
	}
	ept := pb.Sys.Cfg.EPT.Seconds()
	for _, w := range pb.Sys.Workers[:nWorkers-idle] {
		w.Machine.Cores.MustAlloc(w.Machine.Cores.Free())
		w.load[resource.CPU] = 2 * ept * w.Rate(resource.CPU)
	}
	return pb
}

func newPlacementBench(clusCfg cluster.Config, nStages, tasksPerStage int) *PlacementBench {
	loop := eventloop.New()
	clus := cluster.New(loop, clusCfg)
	sys := NewSystem(loop, clus, Config{})
	pb := &PlacementBench{Sys: sys}

	// A handful of jobs sharing the stages, with distinct priorities so the
	// job-ordering boost path is exercised too.
	nJobs := 8
	if nStages < nJobs {
		nJobs = nStages
	}
	jobs := make([]*Job, nJobs)
	for i := range jobs {
		jobs[i] = &Job{ID: i, priority: float64(nJobs - i)}
		sys.Sched.admitted = append(sys.Sched.admitted, jobs[i])
	}
	// The fixture seeds priorities directly (bypassing refreshPriorities,
	// which would overwrite them), so cache the ordering ranks explicitly —
	// orderBoost is an O(1) lookup of the precomputed rank.
	sys.Sched.computeRanks()

	taskID := 0
	for si := 0; si < nStages; si++ {
		st := &dag.Stage{ID: si}
		ps := &PendingStage{Job: jobs[si%nJobs], Stage: st}
		for ti := 0; ti < tasksPerStage; ti++ {
			var est resource.Vector
			// Rotate demand profiles; sizes vary per task to defeat
			// accidental uniformity.
			base := 50e6 + float64(taskID%7)*20e6
			switch si % 3 {
			case 0: // CPU-dominant
				est = est.Set(resource.CPU, base).Set(resource.Disk, base/8)
			case 1: // network-dominant (shuffle-like)
				est = est.Set(resource.Net, base).Set(resource.CPU, base/4)
			default: // disk-dominant
				est = est.Set(resource.Disk, base).Set(resource.CPU, base/6)
			}
			est = est.Set(resource.Mem, 256e6+float64(taskID%5)*64e6)
			t := &dag.Task{ID: taskID, Stage: st, Worker: -1, EstUsage: est,
				InputBytes: base}
			taskID++
			ps.Tasks = append(ps.Tasks, t)
		}
		pb.Pending = append(pb.Pending, ps)
	}

	pb.ctx = &PlaceContext{
		Now:        loop.Now(),
		Cfg:        &sys.Cfg,
		Workers:    sys.Workers,
		Pending:    pb.Pending,
		orderBoost: sys.Sched.orderBoost,
	}
	return pb
}

// Configure applies an arbitrary config mutation to the fixture (e.g. a
// placement flag, or Config.Placer to run the fixture under another placer).
// The context reads the system config through a pointer, so the change takes
// effect on the next Tick.
func (pb *PlacementBench) Configure(f func(*Config)) {
	f(&pb.Sys.Cfg)
}

// Tick runs one full placement pass (snapshot, score, plan) and returns the
// number of placements the pass produced. Worker and task state are left
// untouched, so Ticks are repeatable.
func (pb *PlacementBench) Tick() int {
	return len(pb.TickPlacements())
}

// TickPlacements runs one full placement pass and returns the placements
// it produced. The slice is reused by the next Tick/TickPlacements call.
func (pb *PlacementBench) TickPlacements() []Placement {
	placer := pb.Sys.Cfg.Placer
	if placer == nil {
		placer = defaultPlacer
	}
	return placer.Place(pb.ctx)
}

// FullRebuildPlacer is Algorithm 1 with nothing inferred within a pass: it
// records no failure in a scan's failTable, so every pass scores every task
// against every worker. It is the reference the equivalence suites compare
// the default placer against (installed through Config.Placer) and has no
// other use: it does strictly more work for, as those suites prove,
// bit-identical placements.
type FullRebuildPlacer struct{}

func (FullRebuildPlacer) Place(ctx *PlaceContext) []Placement {
	ctx.exhaustive = true
	out := Algorithm1{}.Place(ctx)
	ctx.exhaustive = false
	return out
}

// CheckingPlacer places with Algorithm 1 as the scheduler runs it and, over
// the same interval on a context of its own, with FullRebuildPlacer, and
// counts the passes on which the two disagree. Tests install it through
// Config.Placer on the paths no simulated twin run can cover (live drivers,
// the TCP cluster), where wall-clock time makes two runs incomparable but
// two placers on one pass are not. The reference runs on the checker's own
// context, so it shares neither the scheduler's scratch state nor its
// witness pruning. The counters are written on the control loop; read them after it
// has stopped. Stage-aware placement only: the DisableStageAware ablation
// marks tasks as it plans them, so it cannot be run twice over one pool.
type CheckingPlacer struct {
	Passes    int    // passes compared
	Diffs     int    // passes on which the placers disagreed
	FirstDiff string // the first disagreement, for the failure message

	ref PlaceContext
}

func (c *CheckingPlacer) Place(ctx *PlaceContext) []Placement {
	got := Algorithm1{}.Place(ctx)
	c.ref.Now, c.ref.Cfg, c.ref.Workers, c.ref.Pending = ctx.Now, ctx.Cfg, ctx.Workers, ctx.Pending
	c.ref.orderBoost = ctx.orderBoost
	want := FullRebuildPlacer{}.Place(&c.ref)
	if !slices.Equal(got, want) {
		if c.Diffs == 0 {
			c.FirstDiff = fmt.Sprintf("pass %d at %v: %d placements, full rebuild %d",
				c.Passes, ctx.Now, len(got), len(want))
		}
		c.Diffs++
	}
	c.Passes++
	return got
}
