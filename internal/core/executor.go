package core

import (
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// TaskExecutor runs monotasks for real (internal/live in process,
// internal/remote on agents): the worker runs a placed task's monotasks in
// its own queues (§4.2.3, mtqueue.Runner). StartTask takes the task whole,
// with its job's priority snapshot for the queue order; its ready monotasks
// are prepared, and the rest are prepared as the monotasks they depend on
// complete. done is delivered on the control loop once per monotask,
// producers before their consumers, with its processed bytes and measured
// seconds — the X and T of the worker's rate estimate X/T (§4.2.2). The
// abort hook is called on the control loop if the worker fails (§4.3);
// after abort, done must not be delivered, nor from within StartTask.
// Without one, the simulator runs each monotask (simulate).
type TaskExecutor interface {
	StartTask(w *Worker, j *Job, t *dag.Task, prio float64, done func(mt *dag.Monotask, bytes, seconds float64)) (abort func())
}

// HoldCore is the core accounting of an executor that runs monotasks for
// real, mirroring the simulated one so placement sees real occupancy: a CPU
// monotask holds one core of its worker, allocated and in use, from its
// start (in process) or its task's dispatch (remote) until release; other kinds hold none, and so does
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

// simulate is the discrete-event execution model: CPU monotasks occupy a
// core for dispatch overhead plus work/rate; network and disk monotasks
// drive a flow on the machine's shared device. It schedules everything on
// the virtual loop, so simulated runs stay single-threaded and
// deterministic. finish runs when the monotask ends; abort cancels it when
// the worker fails (§4.3).
func simulate(w *Worker, mt *dag.Monotask, finish func()) (abort func()) {
	loop := w.sys.Loop
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
