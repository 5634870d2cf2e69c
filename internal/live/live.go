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
// The scheduling control plane is the code the simulator runs; the Driver
// (clock) differs, and each worker's monotask queues are the worker agent's
// task runner (mtqueue.Runner) instead of the simulated ones. See DESIGN.md
// §8 for the layering and the determinism boundary.
package live

import (
	"context"
	"runtime"
	"sync/atomic"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/localrt"
	"ursa/internal/resource"
)

// Config shapes a live deployment on the local machine; how long it runs is
// its owner's call (System.Shutdown).
type Config struct {
	// Workers is the number of logical scheduler workers ("machines") the
	// control plane places tasks onto. Data lives in one shared in-memory
	// store regardless; workers are scheduling domains with their own
	// per-resource queues, rate monitors and memory accounting. Default 1.
	Workers int
	// CoresPerWorker is each logical worker's CPU concurrency limit in the
	// scheduler's accounting. Default: GOMAXPROCS/Workers, at least 1.
	CoresPerWorker int
	// MemPerWorker is each worker's memory capacity in the scheduler's
	// units (dataset sizes, i.e. rows for the local runtime). It only
	// gates admission and reservation; the default is effectively
	// unbounded for local datasets.
	MemPerWorker float64
	// Core configures the scheduler. Zero fields default like the
	// simulation, except SchedInterval (10ms of wall clock: a ready task is
	// placed at the end of the control-loop batch that made it ready, and the
	// tick places only what time alone makes placeable), RateWindow (1s) and
	// SmallMonotaskBytes (1, so every monotask goes through its worker's
	// runner queues and the full §4.2.3 path is exercised).
	Core core.Config
	// NewBackend, when set, replaces the in-process execution back-end.
	// This is the remote-mode seam: internal/remote installs a backend that
	// sends placed tasks to worker agent processes over TCP while the
	// control plane above stays byte-for-byte identical.
	NewBackend func(*System) Backend
}

// Backend is a live System's execution back-end: a core.TaskExecutor (the
// in-process executor of this package, or the remote executor of
// internal/remote, whose agents run the same runner) plus the
// job-registration and shutdown hooks the System calls around it.
type Backend interface {
	core.TaskExecutor
	// RegisterJob takes the runtime that will hold a submitted job's
	// materialized datasets (its plan is rt.Plan()). Called on the submitting
	// goroutine as Submit builds the runtime, before the job reaches the loop.
	RegisterJob(rt *localrt.Runtime)
	// Close stops the backend after the driver exits, draining any
	// in-flight work.
	Close()
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.CoresPerWorker <= 0 {
		c.CoresPerWorker = runtime.GOMAXPROCS(0) / c.Workers
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
// its materialized datasets. Core is set on the control loop as the job is
// queued, before its Submission's OnQueued runs.
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

	exec Backend

	// unadmitted counts the jobs the current batch queued; the end-of-batch
	// hook runs one admission pass over them. Loop-owned.
	unadmitted int
	// passes and passJobs count those admission passes and the jobs they
	// covered, for readers off the loop.
	passes, passJobs atomic.Int64
	runErr           error
}

// NewSystem assembles a live system. Submit jobs, then Run.
func NewSystem(cfg Config) *System {
	cfg = cfg.withDefaults()
	drv := eventloop.NewLiveDriver()
	clus := cluster.New(drv.Loop(), cfg.clusterConfig())
	sys := core.NewSystem(drv.Loop(), clus, cfg.Core)
	s := &System{Drv: drv, Core: sys, Cluster: clus}
	drv.SetBatchEnd(s.batchEnd)
	if cfg.NewBackend != nil {
		s.exec = cfg.NewBackend(s)
	} else {
		s.exec = newExecutor(s)
	}
	sys.SetTaskExecutor(s.exec)
	return s
}

// batchEnd is the driver's end-of-batch hook: one admission pass over the
// jobs the batch queued, if it queued any, then the event placement pass.
func (s *System) batchEnd() {
	if n := s.unadmitted; n > 0 {
		s.unadmitted = 0
		s.Core.FlushAdmission()
		s.passes.Add(1)
		s.passJobs.Add(int64(n))
	}
	s.Core.Sched.PlaceIfChanged()
}

// AdmissionPasses returns how many end-of-batch admission passes have run
// and how many submitted jobs they covered. Safe from any goroutine.
func (s *System) AdmissionPasses() (passes, jobs int) {
	return int(s.passes.Load()), int(s.passJobs.Load())
}

// Submission is one job for Submit: a pre-built plan plus its inputs, with
// an optional callback fired on the control loop once the job is queued.
type Submission struct {
	Spec   core.JobSpec
	Plan   *dag.Plan
	Inputs []localrt.PlanInput
	// OnQueued runs on the control loop right after this job is enqueued,
	// before the admission pass that can admit it — the window where a caller
	// can bind job-tracking state without racing the admission hooks.
	OnQueued func(*Job)
}

// Submit is the one way a job enters the system. It returns the job's
// handle at once: the runtime is built and its inputs bound on the calling
// goroutine, so admission and the SRJF hint see real input sizes; a generated
// input is made later, by the monotasks that read it.
// The job then crosses the driver inbox: on the loop it is enqueued on its
// tenant's admission queue and its OnQueued runs, and at the end of that
// batch one admission pass covers every job the batch queued. Called before
// Run, the crossing waits in the inbox and runs when the loop starts. Safe
// from any goroutine; submissions after Run has returned are discarded.
func (s *System) Submit(sub Submission) *Job {
	rt := localrt.New(sub.Plan)
	for _, in := range sub.Inputs {
		rt.BindInput(in)
	}
	s.exec.RegisterJob(rt)
	j := &Job{rt: rt}
	s.Drv.Send(func() {
		j.Core = s.Core.SubmitPlanNow(sub.Spec, sub.Plan)
		s.unadmitted++
		if sub.OnQueued != nil {
			sub.OnQueued(j)
		}
	})
	return j
}

// Shutdown ends the run from any goroutine: Run returns nil after the batch
// in progress (at once if called before Run). The owner of the work calls it
// once that work is done.
func (s *System) Shutdown() { s.Drv.Stop() }

// Fail records the first fatal back-end error and shuts the driver down.
// It must run on the control loop (relay through Drv.Send from elsewhere);
// backends call it when an execution or transport failure is unrecoverable.
func (s *System) Fail(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
	s.Drv.Stop()
}

// Run drives the control loop against the wall clock until Shutdown (nil),
// Fail (the first failure) or the end of ctx (ctx's error). Call it once. It
// does not stop when the jobs run out, and Core.OnJobFinished is the owner's
// to set. The scheduler path is the simulation's: admission under the memory
// reservation, the same batched placement pass, per-resource worker queues
// — only the clock, the execution back-end and what triggers the passes
// differ: here a control-loop batch that queued jobs ends in one
// admission pass over them, and one that changed what is placeable ends in a
// placement pass (NewSystem wires both to the driver's end-of-batch hook),
// with the SchedInterval tick as the time-driven fallback.
func (s *System) Run(ctx context.Context) error {
	err := s.Drv.Run(ctx)
	s.exec.Close()
	if s.runErr != nil {
		return s.runErr
	}
	return err
}
