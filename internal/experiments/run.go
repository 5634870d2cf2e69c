// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation (§5), shared by cmd/ursa-bench and the
// repository's benchmark suite. Each experiment runs the relevant workload
// on the relevant systems over the simulated cluster and reports the same
// rows or series the paper does.
package experiments

import (
	"fmt"
	"sort"

	"ursa/internal/baseline"
	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/metrics"
	"ursa/internal/trace"
	"ursa/internal/workload"
)

// Options scales and seeds an experiment run. Scale 1 is the paper's
// configuration; smaller values shrink job counts proportionally so smoke
// runs and benchmarks stay fast.
type Options struct {
	Scale float64
	Seed  int64
	// SampleInterval for utilization series; 0 disables sampling.
	SampleInterval eventloop.Duration
	// Workers bounds how many of an experiment's independent simulation
	// runs execute concurrently: 0 means GOMAXPROCS, 1 forces strict serial
	// execution. Results are identical for every value (each run is a
	// self-contained deterministic event loop; see runAll).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// scaled returns max(1, round(n·scale)).
func (o Options) scaled(n int) int {
	k := int(float64(n)*o.Scale + 0.5)
	if k < 1 {
		k = 1
	}
	return k
}

// Result captures one system's run over one workload.
type Result struct {
	System   string
	Makespan float64
	AvgJCT   float64
	Eff      metrics.Efficiency
	// JCTs are per-job completion times in submission order, seconds.
	JCTs []float64
	// Series is the cluster utilization time series (nil if not sampled).
	Series *trace.TimeSeries
	// PerMachineCPU is each machine's mean CPU utilization %.
	PerMachineCPU []float64
	// StragglerRatio is the mean per-job ratio of total stage straggler
	// time to JCT (§5.1.2), in percent.
	StragglerRatio float64
	// Placement is the scheduler's own count of its placement work (Ursa
	// runs only): decisions, not time, so a seeded run repeats it exactly.
	Placement PlacementCounts
}

// PlacementCounts is how much placement work one run did: passes, the tasks
// Algorithm 1's stage scans visited, and those among them it settled without
// scoring a worker (core.Scheduler.PlacementScans).
type PlacementCounts struct {
	Passes, Scanned, Skipped uint64
}

// RunUrsa executes a workload on Ursa with the given scheduler config.
func RunUrsa(w *workload.Workload, cfg core.Config, clusCfg cluster.Config, sample eventloop.Duration) Result {
	return runUrsa(w, cfg, clusCfg, sample, nil)
}

// runUrsa is RunUrsa with a hook that runs once the jobs are submitted and
// before the loop starts: where a scenario schedules what the workload does
// not describe (worker failures).
func runUrsa(w *workload.Workload, cfg core.Config, clusCfg cluster.Config, sample eventloop.Duration, scenario func(*core.System)) Result {
	loop := eventloop.New()
	clus := cluster.New(loop, clusCfg)
	sys := core.NewSystem(loop, clus, cfg)
	var sampler *metrics.Sampler
	if sample > 0 {
		sampler = metrics.NewSampler(loop, metrics.ClusterSource(clus), sample)
	}
	start := clus.Snap()
	var end cluster.Snapshot
	sys.OnJobFinished = func(*core.Job) {
		if sys.AllDone() {
			end = clus.Snap()
			if sampler != nil {
				sampler.Stop()
			}
		}
	}
	for _, s := range w.Jobs {
		sys.MustSubmit(s.Spec, s.At)
	}
	if scenario != nil {
		scenario(sys)
	}
	loop.Run()
	if !sys.AllDone() {
		panic(fmt.Sprintf("experiments: workload %s stalled on ursa", w.Name))
	}
	if err := sys.CheckQuiesced(); err != nil {
		panic(fmt.Sprintf("experiments: workload %s on ursa: %v", w.Name, err))
	}
	res := Result{System: "ursa-" + cfg.Policy.String()}
	var jobs []metrics.JobTimes
	for _, j := range sys.Jobs() {
		jobs = append(jobs, metrics.JobTimes{Submitted: j.Submitted, Finished: j.Finished})
		res.JCTs = append(res.JCTs, j.JCT().Seconds())
	}
	res.Makespan = metrics.Makespan(jobs)
	res.AvgJCT = metrics.AvgJCT(jobs)
	res.Eff = metrics.ComputeEfficiency(start, end, clus.TotalCores(), clus.TotalMem())
	if sampler != nil {
		res.Series = sampler.Cluster
		res.PerMachineCPU = sampler.MeanPerMachineCPU()
	}
	res.StragglerRatio = ursaStragglerRatio(sys)
	event, timer := sys.Sched.PlacementPasses()
	res.Placement.Passes = event + timer
	res.Placement.Scanned, res.Placement.Skipped = sys.Sched.PlacementScans()
	return res
}

// RunBaseline executes a workload on an executor baseline (Y+S, Y+T, Y+U).
func RunBaseline(w *workload.Workload, cfg baseline.Config, clusCfg cluster.Config, sample eventloop.Duration) Result {
	loop := eventloop.New()
	clus := cluster.New(loop, clusCfg)
	sys := baseline.NewSystem(loop, clus, cfg)
	var sampler *metrics.Sampler
	if sample > 0 {
		sampler = metrics.NewSampler(loop, sys.Source(), sample)
	}
	start := sys.Snap()
	var end cluster.Snapshot
	sys.OnJobFinished = func(*baseline.Job) {
		if sys.AllDone() {
			end = sys.Snap()
			if sampler != nil {
				sampler.Stop()
			}
		}
	}
	for _, s := range w.Jobs {
		sys.MustSubmit(s.Spec, s.At)
	}
	loop.Run()
	if !sys.AllDone() {
		panic(fmt.Sprintf("experiments: workload %s stalled on %v", w.Name, cfg.Runtime))
	}
	res := Result{System: "y+" + cfg.Runtime.String()}
	var jobs []metrics.JobTimes
	var stragglerSum float64
	for _, j := range sys.Jobs() {
		jobs = append(jobs, metrics.JobTimes{Submitted: j.Submitted, Finished: j.Finished})
		res.JCTs = append(res.JCTs, j.JCT().Seconds())
		// Sum stages in a fixed order: float addition is not associative,
		// and map iteration order would otherwise perturb the low bits from
		// run to run, breaking the parallel==serial determinism contract.
		stages := make([]*dag.Stage, 0, len(j.StageTaskDurations))
		for st := range j.StageTaskDurations {
			stages = append(stages, st)
		}
		sort.Slice(stages, func(a, b int) bool { return stages[a].ID < stages[b].ID })
		var st float64
		for _, stage := range stages {
			st += metrics.StageStragglerTime(j.StageTaskDurations[stage])
		}
		if jct := j.JCT().Seconds(); jct > 0 {
			stragglerSum += 100 * st / jct
		}
	}
	res.Makespan = metrics.Makespan(jobs)
	res.AvgJCT = metrics.AvgJCT(jobs)
	res.Eff = metrics.ComputeEfficiency(start, end, clus.TotalCores(), clus.TotalMem())
	if len(jobs) > 0 {
		res.StragglerRatio = stragglerSum / float64(len(jobs))
	}
	if sampler != nil {
		res.Series = sampler.Cluster
		res.PerMachineCPU = sampler.MeanPerMachineCPU()
	}
	return res
}

// ursaStragglerRatio computes the §5.1.2 straggler measure from the JMs'
// task lifetime records.
func ursaStragglerRatio(sys *core.System) float64 {
	var sum float64
	n := 0
	for _, j := range sys.Jobs() {
		jm := j.JM()
		if jm == nil {
			continue
		}
		byStage := map[int][]float64{}
		for t, done := range jm.TaskDoneAt {
			placed, ok := jm.TaskPlacedAt[t]
			if !ok {
				continue
			}
			byStage[t.Stage.ID] = append(byStage[t.Stage.ID], (done - placed).Seconds())
		}
		// As in RunBaseline: sum stages in sorted-ID order so the float
		// accumulation is reproducible despite map iteration order.
		ids := make([]int, 0, len(byStage))
		for id := range byStage {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var st float64
		for _, id := range ids {
			st += metrics.StageStragglerTime(byStage[id])
		}
		if jct := j.JCT().Seconds(); jct > 0 {
			sum += 100 * st / jct
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Report is a rendered experiment outcome: a table plus optional series.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Series maps a label (e.g. "ursa-EJF") to a utilization time series
	// for figure experiments.
	Series map[string]*trace.TimeSeries
	Notes  []string
}

// Experiment binds an id to its runner.
type Experiment struct {
	ID    string
	Paper string
	Desc  string
	Run   func(Options) *Report
}

// fmtRow renders makespan/avgJCT/efficiency columns.
func effRow(name string, r Result) []string {
	return []string{
		name,
		fmt.Sprintf("%.0f", r.Makespan),
		fmt.Sprintf("%.2f", r.AvgJCT),
		fmt.Sprintf("%.2f", r.Eff.UECPU),
		fmt.Sprintf("%.2f", r.Eff.SECPU),
		fmt.Sprintf("%.2f", r.Eff.UEMem),
		fmt.Sprintf("%.2f", r.Eff.SEMem),
	}
}

var effHeader = []string{"system", "makespan(s)", "avgJCT(s)", "UEcpu(%)", "SEcpu(%)", "UEmem(%)", "SEmem(%)"}
