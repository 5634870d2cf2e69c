package core

import (
	"container/heap"
	"fmt"
	"sort"

	"ursa/internal/cluster"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// Worker manages one machine's distributed monotask queues (§4.2.3): one
// queue per resource kind, ordered by job priority and monotask size, with
// per-kind concurrency control, plus the actual resource allocation and the
// processing-rate monitor feeding the scheduler's APT load measure.
type Worker struct {
	ID      int
	sys     *System
	Machine *cluster.Machine

	queues  [3]mtQueue // indexed by resource.CPU/Net/Disk
	running [3]int
	// load is the estimated remaining work (bytes) of monotasks assigned
	// to this worker per kind, the numerator of APT_r(w).
	load [3]float64

	rates [3]*rateMonitor
	// nominal holds the declared (profile) processing rates the monitors
	// were seeded from: per-core rate for CPU, per-flow bandwidth for
	// network, disk bandwidth for disk. The interference penalty compares
	// measured rates against these.
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

	enqSeq uint64

	// epoch counts state changes that can alter the scheduler's per-worker
	// snapshot (queue contents, load, rates, idle cores, memory
	// reservations, failure). PlaceContext compares it against the epoch
	// captured at the last snapshot refresh to skip clean workers; see
	// PlaceContext.prepare.
	epoch uint64
}

// markDirty records that the worker's schedulable state changed, so the
// next placement tick must refresh its snapshot.
func (w *Worker) markDirty() { w.epoch++ }

// staleNever is the "no time-driven refresh needed" sentinel for snapshot
// staleness deadlines.
const staleNever = eventloop.Time(1<<63 - 1)

// snapshotStaleAt returns the earliest virtual time at which this worker's
// scheduler snapshot could change without any intervening markDirty event:
// the next rate-window boundary of a monitor holding unrolled samples
// (rates only blend at window-grid boundaries; see rateMonitor.roll).
// Callers must have read the rates at the current time first.
func (w *Worker) snapshotStaleAt() eventloop.Time {
	at := staleNever
	for _, r := range w.rates {
		if t := r.nextChange(); t < at {
			at = t
		}
	}
	return at
}

type taskMem struct {
	job      *Job
	reserved float64
	used     float64
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
	for k := range w.queues {
		if w.queues[k].Len() != 0 {
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
	for k := range w.queues {
		w.queues[k].cfg = &sys.Cfg
	}
	// Device activity moves the measured rates feeding APT_r(w); surface it
	// as snapshot dirtiness for incremental placement ticks.
	m.Net.OnActivity = w.markDirty
	m.Disk.OnActivity = w.markDirty
	return w
}

// initRates (re)builds the rate monitors from the machine's declared
// profile: monitors are seeded with — and decay back toward — the nominal
// per-machine rates, not a cluster-wide uniform assumption.
func (w *Worker) initRates() {
	m := w.Machine
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
// bytes/s — the whole-machine rate for CPU, mirroring Rate. The ratio
// Rate/NominalRate is the interference penalty's deviation signal.
func (w *Worker) NominalRate(k resource.Kind) float64 {
	r := w.nominal[k]
	if k == resource.CPU {
		r *= w.Machine.Cores.Capacity()
	}
	return r
}

// Deviation returns the worker's observed-vs-nominal type-k rate ratio —
// the no-decay interference signal the penalty-aware placement scores
// against (see rateMonitor.deviation). 1 means the worker delivers its
// declared profile.
func (w *Worker) Deviation(k resource.Kind) float64 {
	return w.rates[k].deviation()
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
func (w *Worker) QueueLen(k resource.Kind) int { return w.queues[k].Len() }

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
	w.markDirty()
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
	w.markDirty()
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
	if !mt.Kind.Valid() || mt.Kind == resource.Mem {
		panic(fmt.Sprintf("core: enqueue of non-monotask kind %v", mt.Kind))
	}
	w.markDirty()
	w.enqSeq++
	item := &queuedMT{
		job:  j,
		mt:   mt,
		prio: j.priority,
		seq:  w.enqSeq,
	}
	// Latency-sensitive small monotasks skip the queue entirely (§4.2.3).
	if mt.Kind == resource.Net && mt.InputBytes < w.sys.Cfg.SmallMonotaskBytes {
		w.start(item, false)
		return
	}
	heap.Push(&w.queues[mt.Kind], item)
	w.pump(mt.Kind)
}

// concurrencyLimit returns the per-kind concurrent execution limit
// (§4.2.3): all cores for CPU, a small constant for network, one per disk.
func (w *Worker) concurrencyLimit(k resource.Kind) int {
	switch k {
	case resource.CPU:
		return int(w.Machine.Cores.Capacity())
	case resource.Net:
		return w.sys.Cfg.NetConcurrency
	default:
		return 1
	}
}

// pump starts queued monotasks while concurrency and resources allow.
func (w *Worker) pump(k resource.Kind) {
	for w.queues[k].Len() > 0 && w.running[k] < w.concurrencyLimit(k) {
		if k == resource.CPU && w.idleCores() < 1 {
			return
		}
		item := heap.Pop(&w.queues[k]).(*queuedMT)
		w.start(item, true)
	}
}

// start executes one monotask through the system's executor: the simulated
// executor charges modeled durations on the virtual clock; a live executor
// runs the real work on goroutines and reports measured cost through the
// driver inbox. Either way the completion (done) runs on the control loop
// and feeds the measured bytes/seconds into the worker's rate monitor.
// counted=false marks bypassed small monotasks that do not consume a
// concurrency slot.
func (w *Worker) start(item *queuedMT, counted bool) {
	mt := item.mt
	mt.State = dag.MTRunning
	w.markDirty() // core allocation / running counts change below
	if counted {
		w.running[mt.Kind]++
	}
	done := func(bytes, seconds float64) {
		w.markDirty()                   // load, rates and concurrency slots change below
		w.sys.Sched.placeChanged = true // freed capacity can make a pending task placeable
		delete(w.active, mt)
		w.rates[mt.Kind].sample(bytes, seconds)
		if counted {
			w.running[mt.Kind]--
		}
		w.load[mt.Kind] -= mt.EstInput
		if w.load[mt.Kind] < 0 {
			w.load[mt.Kind] = 0
		}
		item.job.jm.monotaskDone(w, mt)
		w.pump(mt.Kind)
	}
	w.active[mt] = w.sys.exec.Start(w, item.job, mt, done)
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
	w.markDirty()
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
	for k := range w.queues {
		w.queues[k].items = nil
		w.running[k] = 0
		w.load[k] = 0
	}
	for _, v := range victims {
		w.releaseTask(v.task)
	}
	return victims
}

// queuedMT is a queue entry with its ordering snapshot.
type queuedMT struct {
	job  *Job
	mt   *dag.Monotask
	prio float64
	seq  uint64
}

// mtQueue orders monotasks per §4.2.3: by job priority (EJF/SRJF), then —
// within the same job and stage — CPU monotasks by descending input size
// (large tasks start earlier to shorten the stage) and network/disk
// monotasks by ascending input size (make dependents ready earlier).
type mtQueue struct {
	cfg   *Config
	items []*queuedMT
}

func (q *mtQueue) Len() int { return len(q.items) }

func (q *mtQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if q.cfg.DisableMonotaskOrdering {
		return a.seq < b.seq
	}
	if a.prio != b.prio {
		return a.prio > b.prio // higher priority job first
	}
	if a.job == b.job && a.mt.Task.Stage == b.mt.Task.Stage && a.mt.InputBytes != b.mt.InputBytes {
		if a.mt.Kind == resource.CPU {
			return a.mt.InputBytes > b.mt.InputBytes
		}
		return a.mt.InputBytes < b.mt.InputBytes
	}
	return a.seq < b.seq
}

func (q *mtQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *mtQueue) Push(x any) { q.items = append(q.items, x.(*queuedMT)) }

func (q *mtQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}

// rateMonitor implements the worker's periodic processing-rate estimate
// X/T (§4.2.2): X is the input bytes of monotasks completed in the window,
// T their accumulated execution time.
type rateMonitor struct {
	loop        *eventloop.Loop
	window      eventloop.Duration
	current     float64
	initial     float64 // nominal rate: the blend prior and the decay target
	observed    float64 // EWMA of sampled windows only; never decays (interference memory)
	bytes       float64
	seconds     float64
	windowStart eventloop.Time
}

func newRateMonitor(loop *eventloop.Loop, initial float64, window eventloop.Duration) *rateMonitor {
	return &rateMonitor{loop: loop, window: window, current: initial, initial: initial,
		observed: initial, windowStart: loop.Now()}
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

// deviation is the monitor's interference signal: the ratio of the
// no-decay observed-rate EWMA to the nominal rate. Unlike rate(), which
// relaxes back to nominal across idle windows (absence of measurements is
// not evidence of health for *prediction*), the observed EWMA only moves
// when a window actually carried samples — interference is a property of
// the machine and must be remembered across idle gaps, or an interference-
// aware placement oscillates: the contended machine idles, its estimate
// snaps back to nominal, it looks healthy, absorbs a burst, and measures
// slow again. Returns 1 when the monitor has no nominal rate to compare
// against.
func (r *rateMonitor) deviation() float64 {
	r.roll()
	if r.initial <= 0 {
		return 1
	}
	return r.observed / r.initial
}

// rateDecayEps is the relative distance from the nominal rate at which a
// decaying estimate snaps back to exactly nominal, bounding the decay loop
// (≈30 halvings from any starting point) and restoring the staleNever
// fast path for idle workers.
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
// happens to read it. PlaceContext.prepare relies on this: a clean worker's
// rate() is provably unchanged until the boundary reported by nextChange,
// so skipping the read is exact.
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
		r.observed = 0.5*r.observed + 0.5*observed
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

// nextChange returns the earliest virtual time at which the monitor's rate
// can change without a further sample being recorded: the end of the
// current window when unrolled samples are pending *or* the estimate is
// displaced from nominal (the next boundary decays it), or never. Callers
// must have read rate() (i.e. rolled) at the current time first.
func (r *rateMonitor) nextChange() eventloop.Time {
	if r.seconds <= 1e-9 && r.current == r.initial {
		return staleNever
	}
	return r.windowStart + eventloop.Time(r.window)
}
