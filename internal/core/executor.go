package core

import (
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// MonotaskExecutor is the execution back-end of a worker: it runs one
// monotask and reports its measured cost. The control plane (worker queues,
// concurrency limits, load accounting, rate monitors) is identical for every
// executor; only what "running a monotask" means differs:
//
//   - the simulated executor (default) charges modeled durations on the
//     virtual clock against the machine's simulated cores and devices;
//   - the live executor (internal/live) runs the monotask's real UDF /
//     data movement on goroutines and reports wall-clock measurements,
//     closing the paper's processing-rate feedback loop (§4.2.1) with real
//     numbers.
//
// Start is always invoked on the control loop. done must likewise be invoked
// on the control loop (for live executors: via the driver inbox), exactly
// once, with the monotask's processed bytes and its measured execution time
// in seconds — the X and T of the worker's rate estimate X/T (§4.2.2). The
// returned abort hook is called on the control loop if the worker fails
// (§4.3); after abort, done must not be delivered.
type MonotaskExecutor interface {
	Start(w *Worker, j *Job, mt *dag.Monotask, done func(bytes, seconds float64)) (abort func())
}

// TaskExecutor is the execution back-end of workers that keep their own
// monotask queues (§4.2.3), the remote agents: the scheduler places a task,
// and the worker orders and runs its monotasks. StartTask takes a placed
// task whole, with its job's priority snapshot for the worker's queue order;
// the task's ready monotasks are prepared, and the rest are prepared as the
// monotasks they depend on complete. done is delivered on the control loop
// once per monotask, in an order that completes producers before their
// consumers, with the monotask's processed bytes and measured seconds. The
// abort hook is called on the control loop if the worker fails (§4.3);
// after abort, done must not be delivered. StartTask must not call done
// synchronously.
type TaskExecutor interface {
	StartTask(w *Worker, j *Job, t *dag.Task, prio float64, done func(mt *dag.Monotask, bytes, seconds float64)) (abort func())
}

// HoldCore is the core accounting of an executor that runs monotasks for
// real, mirroring the simulated one so placement sees real occupancy: a CPU
// monotask holds one core of its worker, allocated and in use, from Start
// (or its task's dispatch) until release; other kinds hold none, and so does
// a CPU monotask that finds every core held — occupancy is capped at the
// worker's cores. release is idempotent — completion and abort may both call
// it — and, like HoldCore itself, runs on the control loop.
func HoldCore(w *Worker, mt *dag.Monotask) (release func()) {
	if mt.Kind != resource.CPU || w.idleCores() < 1 {
		return func() {}
	}
	w.Machine.Cores.MustAlloc(1)
	w.Machine.Cores.Use(1)
	released := false
	return func() {
		if released {
			return
		}
		released = true
		w.Machine.Cores.Unuse(1)
		w.Machine.Cores.FreeAlloc(1)
	}
}

// simExecutor is the discrete-event execution model: CPU monotasks occupy a
// core for dispatch overhead plus work/rate; network and disk monotasks
// drive a flow on the machine's shared device. It schedules everything on
// the virtual loop, so simulated runs stay single-threaded and
// deterministic.
type simExecutor struct{}

func (simExecutor) Start(w *Worker, _ *Job, mt *dag.Monotask, done func(bytes, seconds float64)) (abort func()) {
	loop := w.sys.Loop
	startAt := loop.Now()
	finish := func() {
		done(mt.InputBytes, (loop.Now() - startAt).Seconds())
	}
	switch mt.Kind {
	case resource.CPU:
		w.Machine.Cores.MustAlloc(1)
		inCompute := false
		var dispatch, compute eventloop.Timer
		dispatch = loop.After(dispatchOverhead, func() {
			inCompute = true
			w.Machine.Cores.Use(1)
			dur := eventloop.FromSeconds(mt.CPUWork / w.Machine.CoreRate())
			compute = loop.After(dur, func() {
				w.Machine.Cores.Unuse(1)
				w.Machine.Cores.FreeAlloc(1)
				finish()
			})
		})
		return func() {
			if inCompute {
				compute.Cancel()
				w.Machine.Cores.Unuse(1)
			} else {
				dispatch.Cancel()
			}
			w.Machine.Cores.FreeAlloc(1)
		}
	case resource.Net:
		flow := w.Machine.Net.Start(mt.InputBytes, finish)
		return func() { w.Machine.Net.Abort(flow) }
	default: // resource.Disk
		flow := w.Machine.Disk.Start(mt.InputBytes, finish)
		return func() { w.Machine.Disk.Abort(flow) }
	}
}
