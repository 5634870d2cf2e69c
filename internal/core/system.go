package core

import (
	"fmt"

	"ursa/internal/cluster"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// System is the Ursa deployment facade: it wires the centralized scheduler,
// one worker per machine, and per-job job managers onto a cluster and an
// event loop (Figure 2).
type System struct {
	Loop    *eventloop.Loop
	Cluster *cluster.Cluster
	Cfg     Config
	Sched   *Scheduler
	Workers []*Worker

	jobs []*Job
	done int

	// tasks, when set by SetTaskExecutor, takes placed tasks whole: the
	// workers queue their own monotasks. Without it the workers' queues run
	// on the virtual clock (simulate).
	tasks TaskExecutor

	// OnJobFinished, if set, is invoked as each job completes.
	OnJobFinished func(*Job)

	// OnJobStateChange, if set, fires on the loop at every job state
	// transition (queued, admitted, finished, cancelled) — the front door
	// uses it to stream JobStatus and to prepare workers at admission time.
	// On admission it fires before any monotask of the job can dispatch.
	OnJobStateChange func(*Job)

	// OnWorkerDrained, if set, fires on the loop when a draining worker
	// empties: every resident task released, nothing queued or in flight.
	// It fires at most once per worker, and synchronously from BeginDrain
	// when the worker is already idle.
	OnWorkerDrained func(id int)
}

// NewSystem builds an Ursa system over the given cluster. Its workers
// simulate their monotasks unless SetTaskExecutor installs a real back-end.
func NewSystem(loop *eventloop.Loop, clus *cluster.Cluster, cfg Config) *System {
	sys := &System{Loop: loop, Cluster: clus, Cfg: cfg.withDefaults()}
	sys.Sched = newScheduler(sys)
	for _, m := range clus.Machines {
		sys.Workers = append(sys.Workers, newWorker(sys, m))
	}
	return sys
}

// SetTaskExecutor installs a back-end whose workers take whole tasks and run
// their monotasks in their own queues (the remote agents, the in-process
// executor). Must be called before any task is placed.
func (s *System) SetTaskExecutor(e TaskExecutor) {
	if e == nil {
		panic("core: nil executor")
	}
	s.tasks = e
}

// Submit schedules a job submission at the given virtual time and returns
// the job handle. The plan is built immediately so specification errors
// surface at submission setup rather than mid-simulation.
func (s *System) Submit(spec JobSpec, at eventloop.Time) (*Job, error) {
	plan, err := spec.Graph.Build()
	if err != nil {
		return nil, fmt.Errorf("core: job %q: %w", spec.Name, err)
	}
	j := s.newJob(spec, plan)
	s.Loop.At(at, func() { s.Sched.submit(j) })
	return j, nil
}

// SubmitPlanNow registers a job whose plan was already built and enqueues it
// on its tenant's admission queue at once, without an admission pass.
// Loop-owned. Pair with FlushAdmission: the live path enqueues every job a
// control-loop batch carries, then runs one admission pass over all of them,
// so per-job cost is queue append + stamp instead of a full
// reservation/rank/sort pass.
func (s *System) SubmitPlanNow(spec JobSpec, plan *dag.Plan) *Job {
	j := s.newJob(spec, plan)
	s.Sched.enqueue(j)
	return j
}

// newJob enters a built plan in the job table.
func (s *System) newJob(spec JobSpec, plan *dag.Plan) *Job {
	j := &Job{ID: len(s.jobs), Spec: spec, Plan: plan, remaining: planWorkHint(plan)}
	s.jobs = append(s.jobs, j)
	return j
}

// FlushAdmission runs one admission pass over everything queued. Loop-owned.
func (s *System) FlushAdmission() { s.Sched.flushAdmission() }

// CancelJob aborts a queued job and reports whether it was cancelled.
// Admitted, finished, and already-cancelled jobs report false. Loop-owned.
func (s *System) CancelJob(j *Job) bool { return s.Sched.cancel(j) }

func (s *System) noteJobState(j *Job) {
	if s.OnJobStateChange != nil {
		s.OnJobStateChange(j)
	}
}

// MustSubmit is Submit for statically known-good specs.
func (s *System) MustSubmit(spec JobSpec, at eventloop.Time) *Job {
	j, err := s.Submit(spec, at)
	if err != nil {
		panic(err)
	}
	return j
}

// Jobs returns all submitted jobs in submission order.
func (s *System) Jobs() []*Job { return s.jobs }

// AllDone reports whether every submitted job has finished.
func (s *System) AllDone() bool { return s.done == len(s.jobs) }

// CheckQuiesced names the first invariant a quiesced system breaks: every
// admission reservation returned, scheduler-wide and per tenant; every
// worker idle, holding no memory or cores beyond float dust; every job done;
// nothing queued. Call it once the loop has stopped.
func (s *System) CheckQuiesced() error {
	if r := s.Sched.reservedMem; r != 0 {
		return fmt.Errorf("core: scheduler still reserves %g", r)
	}
	for _, tq := range s.Sched.tenantSeq {
		if tq.reserved != 0 {
			return fmt.Errorf("core: tenant %q still reserves %g", tq.name, tq.reserved)
		}
	}
	for _, w := range s.Workers {
		if m := w.Machine; !w.Idle() || !m.Mem.Empty() || !m.Cores.Empty() {
			return fmt.Errorf("core: worker %d not empty (idle=%v, mem=%g, cores=%g)",
				w.ID, w.Idle(), m.Mem.Allocated(), m.Cores.Allocated())
		}
	}
	if !s.AllDone() {
		return fmt.Errorf("core: %d of %d jobs not done", len(s.jobs)-s.done, len(s.jobs))
	}
	if n := s.Sched.QueuedCount(); n != 0 {
		return fmt.Errorf("core: %d jobs still queued", n)
	}
	return nil
}

func (s *System) jobDone(j *Job) {
	s.done++
	if s.OnJobFinished != nil {
		s.OnJobFinished(j)
	}
}

func (s *System) maxWorkerMem() float64 {
	max := float64(s.Cluster.Cfg.MemPerMachine)
	for _, m := range s.Cluster.Machines {
		if c := m.Mem.Capacity(); c > max {
			max = c
		}
	}
	return max
}

// SetWorkerProfile re-declares an idle worker's machine profile (zero
// fields inherit the cluster's uniform config): pools, devices and the
// nominal rates seeding the rate monitors are rebuilt from it. The remote
// master calls this when a registering worker advertises its hardware, so
// a heterogeneous fleet is modeled per-machine instead of by the uniform
// assumption. Loop-owned; must run before any work dispatches to the
// worker (the worker must be idle with nothing allocated).
func (s *System) SetWorkerProfile(id int, p cluster.MachineProfile) {
	if id < 0 || id >= len(s.Workers) {
		panic(fmt.Sprintf("core: no worker %d", id))
	}
	w := s.Workers[id]
	if !w.Idle() {
		panic(fmt.Sprintf("core: profile change on busy worker %d", id))
	}
	s.Cluster.Reprofile(w.Machine, p)
	w.initRates()
}

// FailWorker injects a machine failure at the current virtual time (§4.3):
// the worker's in-flight monotasks are aborted and its incomplete tasks are
// reset and rescheduled onto the surviving workers. Completed monotask
// outputs are treated as checkpointed (durable), matching the paper's
// checkpoint-based recovery. Failing an already-failed worker is a no-op.
func (s *System) FailWorker(id int) {
	if id < 0 || id >= len(s.Workers) {
		panic(fmt.Sprintf("core: no worker %d", id))
	}
	w := s.Workers[id]
	if w.failed {
		return
	}
	// Re-report in fail's (job ID, task ID) order, one batch per job: the
	// order tasks re-enter the pending pool decides later placements.
	victims := w.fail()
	for lo := 0; lo < len(victims); {
		j := victims[lo].job
		var tasks []*dag.Task
		for ; lo < len(victims) && victims[lo].job == j; lo++ {
			j.Plan.ResetForRetry(victims[lo].task)
			tasks = append(tasks, victims[lo].task)
		}
		j.jm.reportReady(tasks)
	}
}

// BeginDrain starts a graceful drain of a worker: placement and admission
// capacity exclude it immediately, but resident tasks run to completion —
// nothing is aborted and no output is lost. OnWorkerDrained fires (possibly
// synchronously, if the worker is already idle) once it empties. Returns
// false if the worker is already draining or failed. Loop-owned.
func (s *System) BeginDrain(id int) bool {
	if id < 0 || id >= len(s.Workers) {
		panic(fmt.Sprintf("core: no worker %d", id))
	}
	w := s.Workers[id]
	if w.draining || w.failed {
		return false
	}
	w.draining = true
	w.maybeDrained()
	return true
}

// AddWorker grows the cluster by one uniform machine and registers a
// worker on it. See AddWorkerProfile.
func (s *System) AddWorker() *Worker {
	return s.AddWorkerProfile(cluster.MachineProfile{})
}

// AddWorkerProfile grows the cluster by one machine with the given profile
// (zero fields inherit the uniform config) and registers a worker on it,
// returning the worker. The worker is built directly on the profiled
// machine — its capacities and nominal rates are right before admission
// re-runs, so jobs that were queued (or paused for lack of live capacity)
// admit against the true new capacity. Loop-owned.
func (s *System) AddWorkerProfile(p cluster.MachineProfile) *Worker {
	m := s.Cluster.AddMachineProfile(p)
	w := newWorker(s, m)
	s.Workers = append(s.Workers, w)
	s.Sched.flushAdmission()
	return w
}

// planWorkHint initializes R, the remaining per-resource work used by SRJF,
// from the plan structure: total job input (the plan's pre-set datasets)
// attributed to each resource kind by the monotask counts of each logical op.
// This plays the role of the "historical information" the paper assumes for
// recurring workloads.
func planWorkHint(p *dag.Plan) resource.Vector {
	var input float64
	for _, d := range p.Graph.Datasets() {
		if d.Creator == nil {
			input += d.Total()
		}
	}
	var v resource.Vector
	var counts [3]float64
	real := p.RealMonotasks()
	for _, mt := range real {
		counts[mt.Kind]++
	}
	totalMT := float64(len(real))
	if totalMT == 0 {
		return v
	}
	for _, k := range resource.MonotaskKinds {
		// Every monotask's work is on the order of its input share.
		v[k] = input * counts[k] / totalMT * 2
	}
	return v
}
