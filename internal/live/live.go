// Package live is the wall-clock deployment of the Ursa scheduling core: the
// same Scheduler / Worker / JobManager control plane that powers the
// simulation, driven by an eventloop.LiveDriver instead of virtual time, with
// monotasks executed for real (CPU UDF invocation, hash-bucketed shuffle
// transfer, disk spill — internal/localrt) by goroutines that report
// *measured* durations back into the workers' processing-rate monitors. This
// closes the paper's rate-feedback loop (§4.2.1–4.2.2) with real
// measurements: APT_r(w), SRJF remaining work and placement scores are all
// computed from observed rates, not modeled ones.
//
// The control plane is byte-for-byte the code the simulator runs; only the
// Driver (clock) and the MonotaskExecutor (work) differ. See DESIGN.md §8
// for the layering and the determinism boundary.
package live

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/localrt"
	"ursa/internal/metrics"
	"ursa/internal/resource"
)

// Config shapes a live deployment on the local machine.
type Config struct {
	// Workers is the number of logical scheduler workers ("machines") the
	// control plane places tasks onto. Data lives in one shared in-memory
	// store regardless; workers are scheduling domains with their own
	// per-resource queues, rate monitors and memory accounting. Default 1.
	Workers int
	// CoresPerWorker is each logical worker's CPU concurrency limit in the
	// scheduler's accounting. Default: Parallelism/Workers, at least 1.
	CoresPerWorker int
	// Parallelism bounds how many CPU monotasks actually execute
	// concurrently across the whole process. Default: GOMAXPROCS.
	Parallelism int
	// MemPerWorker is each worker's memory capacity in the scheduler's
	// units (dataset sizes, i.e. rows for the local runtime). It only
	// gates admission and reservation; the default is effectively
	// unbounded for local datasets.
	MemPerWorker float64
	// Core configures the scheduler. Zero fields default like the
	// simulation, except SchedInterval (10ms of wall clock: a short job's
	// ready task is placed at the end of the control-loop batch that made it
	// ready or half an interval after the previous such pass, and the tick
	// places longer jobs and what time alone makes placeable), RateWindow (1s)
	// and SmallMonotaskBytes (1, so every monotask goes through the worker
	// queues and the full §4.2.3 path is exercised).
	Core core.Config
	// SampleInterval enables cluster-utilization sampling at this period
	// for metrics/trace emission; 0 disables.
	SampleInterval eventloop.Duration
	// NewBackend, when set, replaces the in-process execution back-end.
	// This is the remote-mode seam: internal/remote installs a backend that
	// dispatches monotasks to worker agent processes over TCP while the
	// control plane above stays byte-for-byte identical.
	NewBackend func(*System) Backend
	// Serve keeps the driver running after all currently submitted jobs
	// finish: the system is a long-lived service accepting submissions (the
	// master's front door) rather than a run-to-completion batch. Stop it
	// with Shutdown (or ctx cancellation); Run does not treat an empty job
	// table as an error in this mode.
	Serve bool
}

// Backend is a live System's execution back-end: the MonotaskExecutor the
// scheduling core drives, plus the job-registration and shutdown hooks the
// System calls around it. The in-process executor (this package) and the
// distributed RemoteExecutor (internal/remote) both implement it.
type Backend interface {
	core.MonotaskExecutor
	// RegisterJob binds a submitted job to the runtime holding its
	// materialized datasets. Called on the control loop (or before Run).
	RegisterJob(j *core.Job, rt *localrt.Runtime)
	// Close stops the backend after the driver exits, draining any
	// in-flight work.
	Close()
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.CoresPerWorker <= 0 {
		c.CoresPerWorker = c.Parallelism / c.Workers
		if c.CoresPerWorker < 1 {
			c.CoresPerWorker = 1
		}
	}
	if c.MemPerWorker <= 0 {
		c.MemPerWorker = float64(resource.TB)
	}
	if c.Core.SchedInterval <= 0 {
		c.Core.SchedInterval = 10 * eventloop.Millisecond
	}
	if c.Core.RateWindow <= 0 {
		c.Core.RateWindow = eventloop.Second
	}
	if c.Core.SmallMonotaskBytes <= 0 {
		c.Core.SmallMonotaskBytes = 1
	}
	return c
}

// clusterConfig maps the live deployment onto the cluster substrate the
// control plane accounts against. Bandwidth/rate figures are only the
// *initial* guesses of the workers' rate monitors — measured rates replace
// them within one rate window — in rows/s, the local runtime's size unit.
func (c Config) clusterConfig() cluster.Config {
	return cluster.Config{
		Machines:        c.Workers,
		CoresPerMachine: c.CoresPerWorker,
		MemPerMachine:   resource.Bytes(c.MemPerWorker),
		NetBandwidth:    5e7,
		DiskBandwidth:   5e7,
		CoreRate:        1e6,
	}
}

// Job is one live job: the scheduler-side handle plus the runtime holding
// its materialized datasets.
type Job struct {
	Core *core.Job
	rt   *localrt.Runtime
}

// Runtime returns the runtime holding the job's materialized datasets.
func (j *Job) Runtime() *localrt.Runtime { return j.rt }

// Rows returns the materialized rows of a dataset after the job ran. It
// panics on a storage error (spilled store closed, undecodable blob) — use
// RowsErr where those are reachable.
func (j *Job) Rows(d *dag.Dataset) []localrt.Row { return j.rt.Rows(d) }

// RowsErr is Rows with storage errors surfaced: contributions held as
// encoded blobs (checkpointed completions, spilled partitions) decode on
// first read, and that read can fail.
func (j *Job) RowsErr(d *dag.Dataset) ([]localrt.Row, error) { return j.rt.RowsErr(d) }

// System is a live Ursa deployment on the local machine: LiveDriver +
// scheduling core + real-execution back-end.
type System struct {
	Drv     *eventloop.LiveDriver
	Core    *core.System
	Cluster *cluster.Cluster
	Sampler *metrics.Sampler

	// OnJobFinished, if set, runs on the control loop as each job
	// completes.
	OnJobFinished func(*core.Job)

	cfg  Config
	exec Backend

	mu      sync.Mutex
	started bool
	jobs    []*Job
	runErr  error
}

// NewSystem assembles a live system. Submit jobs, then Run.
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	drv := eventloop.NewLiveDriver()
	clus := cluster.New(drv.Loop(), cfg.clusterConfig())
	sys := core.NewSystem(drv.Loop(), clus, cfg.Core)
	drv.SetBatchEnd(sys.Sched.PlaceIfChanged)
	s := &System{Drv: drv, Core: sys, Cluster: clus, cfg: cfg}
	if cfg.NewBackend != nil {
		s.exec = cfg.NewBackend(s)
	} else {
		s.exec = newExecutor(s, cfg.Parallelism)
	}
	sys.SetExecutor(s.exec)
	return s
}

// Submit builds the spec's graph and registers the job with its inputs.
func (s *System) Submit(spec core.JobSpec, inputs []localrt.PlanInput) (*Job, error) {
	plan, err := spec.Graph.Build()
	if err != nil {
		return nil, fmt.Errorf("live: job %q: %w", spec.Name, err)
	}
	return s.SubmitPlan(spec, plan, inputs)
}

// SubmitPlan registers a pre-built plan. Inputs are materialized first so
// the scheduler's admission and SRJF hints see real input sizes. Safe to
// call before Run from the submitting goroutine, and after Run has started
// from any goroutine (the submission is relayed through the driver inbox).
func (s *System) SubmitPlan(spec core.JobSpec, plan *dag.Plan, inputs []localrt.PlanInput) (*Job, error) {
	rt := localrt.New(plan)
	for _, in := range inputs {
		rt.SetInput(in.Dataset, in.Rows)
	}
	j := &Job{rt: rt}
	submit := func() {
		j.Core = s.Core.SubmitPlan(spec, plan, s.Drv.Loop().Now())
		s.exec.RegisterJob(j.Core, rt)
	}
	s.mu.Lock()
	if !s.started {
		submit()
		s.jobs = append(s.jobs, j)
		s.mu.Unlock()
		return j, nil
	}
	s.jobs = append(s.jobs, j)
	s.mu.Unlock()
	done := make(chan struct{})
	s.Drv.Send(func() {
		submit()
		close(done)
	})
	<-done
	return j, nil
}

// Submission is one entry of a SubmitBatch: a pre-built plan plus its
// inputs, with an optional callback fired on the control loop once the job
// is queued (before the batch's single admission pass runs).
type Submission struct {
	Spec   core.JobSpec
	Plan   *dag.Plan
	Inputs []localrt.PlanInput
	// OnQueued runs on the control loop right after this job is enqueued
	// and registered with the back-end, before any job in the batch can be
	// admitted — the window where a caller can bind job-tracking state
	// without racing the admission hooks.
	OnQueued func(*Job)
}

// SubmitBatch submits many jobs in one driver crossing: the whole batch is
// enqueued on the tenant admission queues and then a single admission pass
// runs, so per-job cost is an append instead of a full reservation/rank/sort
// pass and a lock round-trip each. It does not block on the loop; after (if
// set) runs on the loop once the admission pass completes. Before Run it
// executes synchronously. The jobs reach the caller through OnQueued only —
// not Jobs() — so a long-lived service can let a finished job's runtime go.
func (s *System) SubmitBatch(subs []Submission, after func()) {
	run := func() {
		for i := range subs {
			sub := &subs[i]
			rt := localrt.New(sub.Plan)
			for _, in := range sub.Inputs {
				rt.SetInput(in.Dataset, in.Rows)
			}
			j := &Job{rt: rt}
			j.Core = s.Core.SubmitPlanNow(sub.Spec, sub.Plan)
			s.exec.RegisterJob(j.Core, rt)
			if sub.OnQueued != nil {
				sub.OnQueued(j)
			}
		}
		s.Core.FlushAdmission()
		if after != nil {
			after()
		}
	}
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		s.Drv.Send(run)
	} else {
		run()
	}
}

// Shutdown stops the driver loop from any goroutine; Run returns after the
// loop drains. Serve-mode callers use it once the front door has drained.
func (s *System) Shutdown() { s.Drv.Stop() }

// Jobs returns the jobs submitted through Submit and SubmitPlan, in
// submission order.
func (s *System) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.jobs...)
}

// Fail records the first fatal back-end error and shuts the driver down.
// It must run on the control loop (relay through Drv.Send from elsewhere);
// backends call it when an execution or transport failure is unrecoverable.
func (s *System) Fail(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
	s.Drv.Stop()
}

// Run drives the control loop against the wall clock until every submitted
// job finishes, an executor fails, or ctx is cancelled. The scheduler path
// is exactly the simulation's: admission under the memory reservation, the
// same batched placement pass, per-resource worker queues — only the clock,
// the execution back-end and what triggers the pass differ: here it runs at
// the end of a control-loop batch that changed what is placeable for a short
// job, passes keeping half a SchedInterval apart (NewSystem wires
// Scheduler.PlaceIfChanged to the driver's end-of-batch hook), with the
// SchedInterval tick for longer jobs and as the time-driven fallback.
func (s *System) Run(ctx context.Context) error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return errors.New("live: Run called twice")
	}
	s.started = true
	s.mu.Unlock()
	if s.cfg.SampleInterval > 0 {
		s.Sampler = metrics.NewSampler(s.Drv.Loop(), metrics.ClusterSource(s.Cluster), s.cfg.SampleInterval)
	}
	s.Core.OnJobFinished = func(j *core.Job) {
		if cb := s.OnJobFinished; cb != nil {
			cb(j)
		}
		if s.Core.AllDone() && !s.cfg.Serve {
			if s.Sampler != nil {
				s.Sampler.Stop()
			}
			s.Drv.Stop()
		}
	}
	err := s.Drv.Run(ctx)
	s.exec.Close()
	if s.runErr != nil {
		return s.runErr
	}
	if err != nil {
		return err
	}
	if !s.Core.AllDone() && !s.cfg.Serve {
		return errors.New("live: driver stopped before all jobs finished")
	}
	return nil
}
