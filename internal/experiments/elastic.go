package experiments

import (
	"fmt"
	"sort"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/elastic"
	"ursa/internal/eventloop"
	"ursa/internal/workload"
)

// Diurnal trace shape: two compressed "days", each a long sparse night
// trough followed by a dense daytime peak — the canonical load curve
// autoscaling exists for. Nights carry only the lightest jobs (periodic
// maintenance work), days the heavy analytics burst.
const (
	diurnalPeakSpan   = 100 * eventloop.Second
	diurnalTroughSpan = 350 * eventloop.Second
)

// diurnalTrace restamps a TPC-H workload onto the two-day schedule: per
// day, the trough gets one of the lightest jobs and the peak splits the
// heavy remainder evenly.
func diurnalTrace(n int, seed int64) *workload.Workload {
	w := workload.TPCH(n, eventloop.Second, seed)
	w.Name = "diurnal-tpch"

	// Lightest jobs (by declared memory estimate, a proxy for input scale)
	// go to the night troughs; sort is stable so the trace is deterministic.
	order := make([]int, len(w.Jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return w.Jobs[order[a]].Spec.MemEstimate < w.Jobs[order[b]].Spec.MemEstimate
	})

	troughPerDay := n / 12 // ~2 light jobs across both troughs at n=24
	if troughPerDay < 1 {
		troughPerDay = 1
	}
	day := diurnalTroughSpan + diurnalPeakSpan
	nightIdx, dayJobs := 0, make([]int, 0, len(w.Jobs))
	for rank, i := range order {
		if rank < 2*troughPerDay {
			// Night job: park it inside its day's trough.
			d := eventloop.Duration(nightIdx % 2)
			slot := eventloop.Duration(nightIdx / 2)
			w.Jobs[i].At = eventloop.Time(d*day +
				(slot+1)*diurnalTroughSpan/(eventloop.Duration(troughPerDay)+1))
			nightIdx++
			continue
		}
		dayJobs = append(dayJobs, i)
	}
	perPeak := (len(dayJobs) + 1) / 2
	for k, i := range dayJobs {
		d := eventloop.Duration(k / perPeak)
		slot := eventloop.Duration(k % perPeak)
		w.Jobs[i].At = eventloop.Time(d*day + diurnalTroughSpan +
			slot*diurnalPeakSpan/eventloop.Duration(perPeak))
	}
	return w
}

// elasticResult pairs a run's scheduling metrics with its consumed
// machine-seconds (the integral of powered-on machines over the run).
type elasticResult struct {
	Result
	MachineSeconds float64
	// Joins and Drains count scale-up worker arrivals and completed
	// scale-down drains over the run.
	Joins, Drains int
}

// runElasticUrsa runs a workload on Ursa, starting at minW machines, with
// the elastic.Controller the remote master ships ticking on the event loop:
// a scale-up starts a worker that joins after a provisioning delay, a
// scale-down gracefully drains the highest-ID idle worker, within [minW,
// maxW]. Scaling runs as event-loop ticks, never goroutines, so the run is
// deterministic.
func runElasticUrsa(w *workload.Workload, hw cluster.Config, minW, maxW int) elasticResult {
	const (
		tick      = 250 * eventloop.Millisecond
		joinDelay = eventloop.Second
	)
	tickSeconds := float64(tick) / float64(eventloop.Second)
	hw.Machines = minW
	var res elasticResult
	res.Result = runUrsa(w, core.Config{}, hw, 0, func(sys *core.System) {
		c := &elastic.Controller{
			// Scale-up rides core saturation (UtilHigh): TPC-H jobs are
			// CPU-bound — their memory estimates sit far below even a
			// two-machine cluster's capacity and admission keeps the queue
			// empty, so neither ReservedFrac nor Queued ever fires while the
			// trough footprint grinds at 100% core utilization.
			Policy: &elastic.UtilizationPolicy{
				Min: minW, Max: maxW,
				HighWater: 0.85, LowWater: 0.40, UtilHigh: 0.75,
				StepUp: 4, HysteresisTicks: 2,
			},
			Start: func() {
				sys.Loop.After(joinDelay, func() {
					sys.AddWorker()
					res.Joins++
				})
			},
			Drain: func() bool {
				for id := len(sys.Workers) - 1; id >= 0; id-- {
					if wk := sys.Workers[id]; !wk.Draining() && wk.Idle() {
						return sys.BeginDrain(id)
					}
				}
				return false
			},
		}
		sys.OnWorkerDrained = func(int) { res.Drains++ }
		stop := sys.Loop.Every(tick, func() {
			// No worker fails here, so every drain begun is a scale-down
			// and every other worker is live. A worker whose drain has
			// completed stays draining in the core, and is powered off.
			_, down := c.Decisions()
			s := elastic.Sample(sys)
			s.Live, s.Draining, s.Joined = len(sys.Workers)-down, down-res.Drains, res.Joins
			res.MachineSeconds += float64(s.Live+s.Draining) * tickSeconds
			c.Tick(s)
		})
		finished := sys.OnJobFinished
		sys.OnJobFinished = func(j *core.Job) {
			finished(j)
			if sys.AllDone() {
				stop()
			}
		}
	})
	res.System = "ursa-elastic"
	return res
}

// diurnalMinW and diurnalMaxW bound the elastic run; the fixed baseline is
// provisioned at diurnalMaxW for the whole trace.
const (
	diurnalMinW = 2
	diurnalMaxW = 10
)

// diurnalCompare runs the fixed-peak baseline and the elastic run over the
// same diurnal trace. Shared by the Diurnal report and the acceptance test.
func diurnalCompare(opt Options) (fixed Result, fixedMachineSeconds float64, el elasticResult) {
	o := opt.withDefaults()
	n := o.scaled(24)
	hw := paperCluster()

	fixedHW := hw
	fixedHW.Machines = diurnalMaxW
	fixed = RunUrsa(diurnalTrace(n, o.Seed), core.Config{}, fixedHW, 0)
	fixedMachineSeconds = float64(diurnalMaxW) * fixed.Makespan

	el = runElasticUrsa(diurnalTrace(n, o.Seed), hw, diurnalMinW, diurnalMaxW)
	return fixed, fixedMachineSeconds, el
}

// Diurnal compares a fixed cluster provisioned for the peak against the
// elastic subsystem riding the same diurnal trace within [min, max]
// workers. The claim under test: elastic autoscaling holds average JCT
// within ~10% of peak provisioning while consuming well under 70% of the
// machine-hours, because the trough runs on the minimum footprint.
func Diurnal(opt Options) *Report {
	o := opt.withDefaults()
	n := o.scaled(24)
	minW, maxW := diurnalMinW, diurnalMaxW
	fixed, fixedMachineSeconds, el := diurnalCompare(o)

	rep := &Report{ID: "diurnal", Title: "Diurnal trace: elastic autoscaling vs fixed peak provisioning",
		Header: []string{"system", "makespan(s)", "avgJCT(s)", "machine-s", "machine-s vs fixed(%)", "avgJCT vs fixed(%)"}}
	row := func(name string, mk, jct, ms float64) {
		rep.Rows = append(rep.Rows, []string{
			name,
			fmt.Sprintf("%.0f", mk),
			fmt.Sprintf("%.2f", jct),
			fmt.Sprintf("%.0f", ms),
			fmt.Sprintf("%.1f", 100*ms/fixedMachineSeconds),
			fmt.Sprintf("%.1f", 100*jct/fixed.AvgJCT),
		})
	}
	row(fmt.Sprintf("fixed-%d", maxW), fixed.Makespan, fixed.AvgJCT, fixedMachineSeconds)
	row(fmt.Sprintf("elastic-%d..%d", minW, maxW), el.Makespan, el.AvgJCT, el.MachineSeconds)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("trace: %d TPC-H jobs over two days of trough(%ds)+peak(%ds); lightest jobs run at night",
			n, diurnalTroughSpan/eventloop.Second, diurnalPeakSpan/eventloop.Second),
		"elastic: core-saturation scale-up (1s provisioning delay), hysteretic graceful drains on scale-down")
	return rep
}
