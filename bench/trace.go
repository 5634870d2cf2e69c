package main

import (
	"time"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/metrics"
)

// probeInterval paces the control-loop probe: a no-op posted through the
// driver inbox 100 times a second and timed until it runs.
const probeInterval = 10 * time.Millisecond

type loopProbe struct {
	sent time.Time
	wait time.Duration
}

// tracer is the traced phase's recorder on the master side. It turns the
// load generator's admitted stamps on, and measures how long work waits for
// the control loop by posting through the same inbox completions and
// submissions use. Each probe also samples the scheduler's queue depths,
// which are only consistent on the loop.
type tracer struct {
	c         *liveCluster
	wallStart time.Time
	loopStart eventloop.Time
	loopEnd   eventloop.Time

	// Appended on the control loop only; read after stop's final round trip.
	probes       []loopProbe
	queued       float64
	admitted     float64
	reservedFrac float64

	quit chan struct{}
	done chan struct{}
}

func startTracer(c *liveCluster) *tracer {
	t := &tracer{c: c, quit: make(chan struct{}), done: make(chan struct{})}
	c.traced.Store(true)
	loop := c.lc.Master.Sys.Drv.Loop()
	c.onLoop(func() { t.loopStart = loop.Now() })
	t.wallStart = time.Now()
	sched := c.lc.Master.Sys.Core.Sched
	go func() {
		defer close(t.done)
		tick := time.NewTicker(probeInterval)
		defer tick.Stop()
		for {
			select {
			case <-t.quit:
				return
			case sent := <-tick.C:
				c.lc.Master.Sys.Drv.Send(func() {
					t.probes = append(t.probes, loopProbe{sent: sent, wait: time.Since(sent)})
					t.queued += float64(sched.QueuedCount())
					t.admitted += float64(sched.AdmittedCount())
					if capacity := sched.LiveCapacity(); capacity > 0 {
						t.reservedFrac += sched.ReservedMem() / capacity
					}
				})
			}
		}
	}()
	return t
}

func (t *tracer) stop() {
	close(t.quit)
	<-t.done
	// The inbox is FIFO: once this runs, every probe posted before it has.
	t.c.onLoop(func() { t.loopEnd = t.c.lc.Master.Sys.Drv.Loop().Now() })
	t.c.traced.Store(false)
}

// merge pools another epoch's probes and samples into t.
func (t *tracer) merge(o *tracer) {
	t.probes = append(t.probes, o.probes...)
	t.queued += o.queued
	t.admitted += o.admitted
	t.reservedFrac += o.reservedFrac
}

func (t *tracer) metrics(v map[string]float64) {
	waits := make([]float64, len(t.probes))
	for i, p := range t.probes {
		waits[i] = float64(p.wait) / float64(time.Microsecond)
	}
	n := float64(len(t.probes))
	v["remote.ctl_wait_p50_us"] = median(waits)
	v["remote.ctl_wait_p99_us"] = metrics.Percentile(waits, 99)
	v["core.queued_mean"] = ratio(t.queued, n)
	v["core.admitted_mean"] = ratio(t.admitted, n)
	v["core.reserved_frac_mean"] = ratio(t.reservedFrac, n)
}

// upstream lists the tasks whose completion a task waits for. Barriers are
// virtual monotasks that belong to no task, so they are looked through.
func upstream(t *dag.Task) []*dag.Task {
	var ups []*dag.Task
	seen := map[*dag.Task]bool{t: true}
	var visit func(m *dag.Monotask)
	visit = func(m *dag.Monotask) {
		if m.Virtual() {
			for _, in := range m.Ins {
				visit(in)
			}
			return
		}
		if !seen[m.Task] {
			seen[m.Task] = true
			ups = append(ups, m.Task)
		}
	}
	for _, m := range t.Monotasks {
		for _, in := range m.Ins {
			visit(in)
		}
	}
	return ups
}

// coreSpans rebuilds the scheduler-side timeline of finished jobs from the
// stamps the core already keeps: Job.Submitted/Admitted/Finished and the job
// manager's TaskPlacedAt/TaskDoneAt. A task is ready when the job is
// admitted or its last upstream task is done; it waits for placement until
// TaskPlacedAt and runs (dispatch, agent queue, fetch, execute, commit) until
// TaskDoneAt. Times are loop-clock microseconds, reported in milliseconds.
func coreSpans(jobs []*core.Job, v map[string]float64) {
	toMs := func(d eventloop.Time) float64 { return float64(d) / 1000 }
	var admitWait, placeWait, taskRun, critical []float64
	for _, j := range jobs {
		jm := j.JM()
		if jm == nil {
			continue
		}
		admitWait = append(admitWait, toMs(j.Admitted-j.Submitted))
		ready := func(t *dag.Task) eventloop.Time {
			at := j.Admitted
			for _, u := range upstream(t) {
				if d := jm.TaskDoneAt[u]; d > at {
					at = d
				}
			}
			return at
		}
		var last *dag.Task
		for t, done := range jm.TaskDoneAt {
			placed, ok := jm.TaskPlacedAt[t]
			if !ok {
				continue
			}
			placeWait = append(placeWait, toMs(placed-ready(t)))
			taskRun = append(taskRun, toMs(done-placed))
			if last == nil || done > jm.TaskDoneAt[last] {
				last = t
			}
		}
		// Walk the blocking chain back from the task that finished last,
		// each time to the upstream task that finished last.
		var path eventloop.Time
		for t := last; t != nil; {
			path += jm.TaskDoneAt[t] - ready(t)
			var prev *dag.Task
			for _, u := range upstream(t) {
				if prev == nil || jm.TaskDoneAt[u] > jm.TaskDoneAt[prev] {
					prev = u
				}
			}
			t = prev
		}
		critical = append(critical, toMs(path))
	}
	v["core.admit_wait_p50_ms"] = median(admitWait)
	v["core.place_wait_p50_ms"] = median(placeWait)
	v["core.task_run_p50_ms"] = median(taskRun)
	v["core.critical_path_p50_ms"] = median(critical)
}
