package core

import (
	"fmt"
	"sort"

	"ursa/internal/cluster"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/mtqueue"
	"ursa/internal/resource"
)

// Worker manages one machine's distributed monotask queues (§4.2.3, package
// mtqueue) in simulation — a TaskExecutor runs them on the machine itself —
// plus the actual resource allocation and the processing-rate monitor
// feeding the scheduler's APT load measure.
type Worker struct {
	ID      int
	sys     *System
	Machine *cluster.Machine

	queues mtqueue.Queues[queued]
	// load is the estimated remaining work (bytes) of monotasks assigned
	// to this worker per kind, the numerator of APT_r(w).
	load [3]float64

	rates [3]*rateMonitor
	// nominal holds the declared (profile) processing rates the monitors
	// were seeded from: per-core rate for CPU, per-flow bandwidth for
	// network, disk bandwidth for disk.
	nominal [3]float64

	// taskMem tracks per-task memory reservations (§4.2.1: memory is
	// requested per task, not per monotask).
	taskMem map[*dag.Task]taskMem

	// active tracks in-flight monotasks with their abort hooks so a
	// worker failure (§4.3) can reclaim resources deterministically.
	active map[*dag.Monotask]func()
	failed bool

	// draining marks a graceful drain in progress: placement and admission
	// exclude the worker, but resident tasks run to completion — unlike
	// failure, nothing is aborted. drainedNotified latches the one-shot
	// OnWorkerDrained callback once the worker empties.
	draining        bool
	drainedNotified bool
}

type taskMem struct {
	job      *Job
	reserved float64
	used     float64
	// abort is the TaskExecutor's hook for the placed task, nil in
	// simulation.
	abort func()
}

// queued is a monotask in one of the worker's queues.
type queued struct {
	job *Job
	mt  *dag.Monotask
}

// Failed reports whether the worker has been failed by fault injection.
func (w *Worker) Failed() bool { return w.failed }

// Draining reports whether a graceful drain is in progress or complete.
func (w *Worker) Draining() bool { return w.draining }

// Idle reports whether the worker holds no resident tasks, no in-flight
// monotasks and no queued monotasks — the scale-down candidate condition.
func (w *Worker) Idle() bool {
	if len(w.taskMem) != 0 || len(w.active) != 0 {
		return false
	}
	for _, k := range resource.MonotaskKinds {
		if w.queues.Len(k) != 0 {
			return false
		}
	}
	return true
}

// maybeDrained fires the system's OnWorkerDrained hook once a draining
// worker has emptied: every resident task released, nothing in flight,
// nothing queued. A failure during drain suppresses it — the worker exits
// through the failure path instead.
func (w *Worker) maybeDrained() {
	if !w.draining || w.failed || w.drainedNotified || !w.Idle() {
		return
	}
	w.drainedNotified = true
	if w.sys.OnWorkerDrained != nil {
		w.sys.OnWorkerDrained(w.ID)
	}
}

func newWorker(sys *System, m *cluster.Machine) *Worker {
	w := &Worker{
		ID:      m.ID,
		sys:     sys,
		Machine: m,
		taskMem: make(map[*dag.Task]taskMem),
		active:  make(map[*dag.Monotask]func()),
	}
	w.initRates()
	return w
}

// initRates (re)builds the rate monitors and the queue limits from the
// machine's declared profile: monitors are seeded with — and decay back
// toward — the nominal per-machine rates, not a cluster-wide uniform
// assumption, and the CPU queue runs as many monotasks as the machine has
// cores.
func (w *Worker) initRates() {
	m := w.Machine
	w.queues.Limits = mtqueue.Limits{
		Cores: int(m.Cores.Capacity()),
		Net:   w.sys.Cfg.NetConcurrency,
		Small: w.sys.Cfg.SmallMonotaskBytes,
		FIFO:  w.sys.Cfg.DisableMonotaskOrdering,
	}
	netInit := m.NetBandwidth()
	if f := w.sys.Cluster.Cfg.NetPerFlowFraction; f > 0 && f <= 1 {
		netInit *= f
	}
	w.nominal = [3]float64{
		resource.CPU:  m.NominalCoreRate(),
		resource.Net:  netInit,
		resource.Disk: m.DiskBandwidth(),
	}
	w.rates[resource.CPU] = newRateMonitor(w.sys.Loop, w.nominal[resource.CPU], w.sys.Cfg.RateWindow)
	w.rates[resource.Net] = newRateMonitor(w.sys.Loop, w.nominal[resource.Net], w.sys.Cfg.RateWindow)
	w.rates[resource.Disk] = newRateMonitor(w.sys.Loop, w.nominal[resource.Disk], w.sys.Cfg.RateWindow)
}

// Rate returns the measured processing rate for kind k in bytes/s. For CPU
// it is the whole-machine rate (per-core rate × cores), per §4.2.2.
func (w *Worker) Rate(k resource.Kind) float64 {
	r := w.rates[k].rate()
	if k == resource.CPU {
		r *= w.Machine.Cores.Capacity()
	}
	return r
}

// NominalRate returns the declared (profile) processing rate for kind k in
// bytes/s — the whole-machine rate for CPU, mirroring Rate.
func (w *Worker) NominalRate(k resource.Kind) float64 {
	r := w.nominal[k]
	if k == resource.CPU {
		r *= w.Machine.Cores.Capacity()
	}
	return r
}

// APT returns the approximate processing time to complete all type-k
// monotasks currently assigned to the worker (§4.2.2). An idle core makes
// APT_cpu zero, signalling immediately available CPU.
func (w *Worker) APT(k resource.Kind) float64 {
	if k == resource.CPU && w.idleCores() > 0 {
		return 0
	}
	if w.load[k] <= 0 {
		return 0
	}
	rate := w.Rate(k)
	if rate <= 0 {
		// A collapsed measured rate with work still assigned means the
		// worker is stalled, not free: report full occupancy over the
		// horizon (D_r = 0) instead of the old 0 (D_r = 1), which piled
		// more work onto the slowest machine.
		return w.sys.Cfg.EPT.Seconds()
	}
	return w.load[k] / rate
}

// MemFree returns unreserved memory bytes on the worker.
func (w *Worker) MemFree() float64 { return w.Machine.Mem.Free() }

// MemCapacity returns total memory bytes on the worker.
func (w *Worker) MemCapacity() float64 { return w.Machine.Mem.Capacity() }

// Load returns the estimated remaining assigned work for kind k in bytes.
func (w *Worker) Load(k resource.Kind) float64 { return w.load[k] }

// QueueLen returns the number of queued (not running) monotasks of kind k.
func (w *Worker) QueueLen(k resource.Kind) int { return w.queues.Len(k) }

func (w *Worker) idleCores() float64 { return w.Machine.Cores.Free() }

// reserveTask reserves the task's estimated memory (clamped to what is
// free) and models the job's actual residency for UE accounting.
func (w *Worker) reserveTask(j *Job, t *dag.Task) {
	res := t.EstUsage[resource.Mem]
	if free := w.Machine.Mem.Free(); res > free {
		// Estimation drift: clamp rather than deadlock; the surplus would
		// spill to disk in a real deployment.
		res = free
	}
	w.Machine.Mem.MustAlloc(res)
	used := res * j.memActualFactor()
	w.Machine.Mem.Use(used)
	w.taskMem[t] = taskMem{job: j, reserved: res, used: used}
	t.MemReserved = res
	for _, k := range resource.MonotaskKinds {
		w.load[k] += taskKindEst(t, k)
	}
}

// releaseTask frees the task's memory reservation when it completes.
func (w *Worker) releaseTask(t *dag.Task) {
	tm, ok := w.taskMem[t]
	if !ok {
		return
	}
	delete(w.taskMem, t)
	w.Machine.Mem.Unuse(tm.used)
	w.Machine.Mem.FreeAlloc(tm.reserved)
	w.maybeDrained()
}

// taskKindEst sums the estimated inputs of a task's monotasks of kind k.
func taskKindEst(t *dag.Task, k resource.Kind) float64 {
	return t.EstUsage[k]
}

// Enqueue places a ready monotask in the appropriate queue and pumps the
// queue. The job's current priority is snapshotted so queue order is stable
// while the monotask waits; queues drain within roughly EPT, so staleness
// under SRJF is bounded and small.
func (w *Worker) Enqueue(j *Job, mt *dag.Monotask) {
	item := queued{j, mt}
	if w.queues.Add(mt.Kind, j.priority, int64(j.ID), mt.Task.Stage.ID, mt.InputBytes, item) {
		w.start(item, false)
		return
	}
	w.pump(mt.Kind)
}

// pump starts queued monotasks while concurrency and resources allow.
func (w *Worker) pump(k resource.Kind) {
	for k != resource.CPU || w.idleCores() >= 1 {
		item, ok := w.queues.Next(k)
		if !ok {
			return
		}
		w.start(item, true)
	}
}

// start simulates one dequeued monotask on the virtual clock; its
// completion feeds its bytes and modeled seconds into the worker's rate
// monitor. counted=false marks bypassed small monotasks that do not consume
// a concurrency slot.
func (w *Worker) start(item queued, counted bool) {
	mt := item.mt
	mt.State = dag.MTRunning
	startAt := w.sys.Loop.Now()
	w.active[mt] = simulate(w, mt, func() {
		delete(w.active, mt)
		if counted {
			w.queues.Done(mt.Kind)
		}
		w.finished(item.job, mt, mt.InputBytes, (w.sys.Loop.Now() - startAt).Seconds())
		w.pump(mt.Kind)
	})
}

// startTask hands a placed task to the system's TaskExecutor, which runs its
// monotasks in the worker's own queues and reports each one's measured
// completion. The abort hook lives with the task's reservation.
func (w *Worker) startTask(j *Job, t *dag.Task) {
	abort := w.sys.tasks.StartTask(w, j, t, j.priority, func(mt *dag.Monotask, bytes, seconds float64) {
		w.finished(j, mt, bytes, seconds)
	})
	if tm, ok := w.taskMem[t]; ok {
		tm.abort = abort
		w.taskMem[t] = tm
	}
}

// finished feeds one monotask's measured completion into the worker's rate
// monitor and load, then into its job manager. Runs on the control loop.
func (w *Worker) finished(j *Job, mt *dag.Monotask, bytes, seconds float64) {
	w.sys.Sched.placeChanged = true // freed capacity can make a pending task placeable
	w.rates[mt.Kind].sample(bytes, seconds)
	w.load[mt.Kind] -= mt.EstInput
	if w.load[mt.Kind] < 0 {
		w.load[mt.Kind] = 0
	}
	j.jm.monotaskDone(w, mt)
}

// victim is an incomplete task a failed worker held, with its owning job.
type victim struct {
	job  *Job
	task *dag.Task
}

// fail implements worker failure (§4.3): abort everything in flight,
// release held resources, clear the queues, and return the incomplete
// tasks (with their owning jobs) for the scheduler to retry elsewhere.
// Everything runs in (job ID, task ID, monotask) order, never map order:
// the order memory returns to the pool decides its float dust, and two runs
// of one seed must read the same pools.
func (w *Worker) fail() []victim {
	w.failed = true
	victims := make([]victim, 0, len(w.taskMem))
	for t, tm := range w.taskMem {
		victims = append(victims, victim{tm.job, t})
	}
	sort.Slice(victims, func(a, b int) bool {
		va, vb := victims[a], victims[b]
		if va.job != vb.job {
			return va.job.ID < vb.job.ID
		}
		return va.task.ID < vb.task.ID
	})
	// Every in-flight monotask belongs to a resident task: placement
	// reserves the task before enqueueing any of its monotasks, and the
	// task is released only once all of them are done.
	for _, v := range victims {
		if abort := w.taskMem[v.task].abort; abort != nil {
			abort()
		}
		for _, mt := range v.task.Monotasks {
			if abort, ok := w.active[mt]; ok {
				abort()
				delete(w.active, mt)
			}
		}
	}
	if len(w.active) != 0 {
		panic(fmt.Sprintf("core: worker %d runs %d monotasks of no resident task", w.ID, len(w.active)))
	}
	w.queues.Reset()
	w.load = [3]float64{}
	for _, v := range victims {
		w.releaseTask(v.task)
	}
	return victims
}

// rateMonitor implements the worker's periodic processing-rate estimate
// X/T (§4.2.2): X is the input bytes of monotasks completed in the window,
// T their accumulated execution time.
type rateMonitor struct {
	loop        *eventloop.Loop
	window      eventloop.Duration
	current     float64
	initial     float64 // nominal rate: the blend prior and the decay target
	bytes       float64
	seconds     float64
	windowStart eventloop.Time
}

func newRateMonitor(loop *eventloop.Loop, initial float64, window eventloop.Duration) *rateMonitor {
	return &rateMonitor{loop: loop, window: window, current: initial, initial: initial,
		windowStart: loop.Now()}
}

func (r *rateMonitor) sample(bytes, seconds float64) {
	r.roll()
	r.bytes += bytes
	r.seconds += seconds
}

func (r *rateMonitor) rate() float64 {
	r.roll()
	return r.current
}

// rateDecayEps is the relative distance from the nominal rate at which a
// decaying estimate snaps back to exactly nominal, bounding the decay loop
// (≈30 halvings from any starting point).
const rateDecayEps = 1e-9

// roll commits elapsed windows, blending pending samples with the previous
// estimate to damp noise, and decaying the estimate one 0.5-step toward the
// nominal rate for every *empty* window — a measurement from arbitrarily
// long ago must not keep full weight across an idle gap. Pending samples
// always belong to the first elapsed window (sample() rolls before
// recording, so samples never straddle a boundary), so a multi-window gap
// commits exactly one blend followed by per-window decay steps.
//
// The window grid is anchored at the monitor's creation time: windowStart
// advances in whole multiples of the window rather than snapping to the
// read time, and the decay is applied as the identical sequence of
// per-window steps whether the windows are observed one roll at a time or
// all at once — so *what* the rate is at any virtual time is a function of
// time and the sample history alone, never of how often the scheduler
// happens to read it. Placement passes and ursa-master's final report each
// read rates on their own schedule, and no result may depend on how often.
func (r *rateMonitor) roll() {
	now := r.loop.Now()
	elapsed := now - r.windowStart
	if elapsed < eventloop.Time(r.window) {
		return
	}
	n := int64(elapsed / eventloop.Time(r.window))
	if r.seconds > 1e-9 {
		observed := r.bytes / r.seconds
		r.current = 0.5*r.current + 0.5*observed
		r.bytes, r.seconds = 0, 0
		n--
	}
	for ; n > 0 && r.current != r.initial; n-- {
		r.current = 0.5*r.current + 0.5*r.initial
		if d := r.current - r.initial; d <= rateDecayEps*r.initial && d >= -rateDecayEps*r.initial {
			r.current = r.initial
		}
	}
	r.windowStart += elapsed / eventloop.Time(r.window) * eventloop.Time(r.window)
}
