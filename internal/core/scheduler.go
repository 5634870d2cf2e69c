package core

import (
	"slices"
	"sort"
	"sync/atomic"

	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// Scheduler is Ursa's centralized scheduler (§4.2.2): it admits jobs under a
// cluster-wide memory reservation to prevent memory deadlock, and places
// ready tasks onto workers in batches: every SchedInterval, and on a live
// driver additionally at the end of each control-loop batch that changed
// what is placeable (see PlaceIfChanged).
//
// Admission is multi-tenant: each tenant has its own queue ordered by the
// paper's intra-queue policy (EJF submission order or SRJF priority), and a
// deficit-weighted pick — the tenant with the lowest reserved/weight — decides
// whose head job is offered to the reservation check next. With a single
// tenant this degenerates to exactly the paper's single-queue discipline.
type Scheduler struct {
	sys *System

	// tenants maps tenant name → its admission queue; tenantSeq holds the
	// same queues in first-submission order for deterministic iteration.
	tenants   map[string]*tenantQueue
	tenantSeq []*tenantQueue
	// nqueued counts live (non-cancelled) queued jobs across all tenants.
	nqueued int

	// admitted are running jobs.
	admitted []*Job
	// reservedMem is the cluster-wide memory reserved for admitted jobs.
	reservedMem float64

	// pending is the pool of (job, stage) entries with ready unplaced
	// tasks.
	pending []*PendingStage

	// pctx is the placement context reused across ticks: its worker
	// snapshots and scoring scratch buffers persist, so a steady-state tick
	// does not allocate.
	pctx PlaceContext

	// rankBuf is the reusable priority scratch of computeRanks.
	rankBuf []float64

	// paused is set when an admission pass found queued jobs but no live
	// capacity (every worker failed or draining): jobs stay queued until
	// capacity returns (AddWorker re-runs admission) instead of admitting
	// against a zero total and failing placement forever. Atomic so a host
	// can report it off the control loop.
	paused atomic.Bool

	ticking  bool
	stopTick func()

	// placeChanged records that ready tasks were added or a monotask
	// completion freed worker capacity since the last placement pass — the
	// only events (besides the passage of time, which the periodic tick
	// covers) that can make a pending task placeable.
	placeChanged bool
	// passes counts placement passes, eventPasses those PlaceIfChanged ran.
	passes, eventPasses uint64
}

// tenantQueue is one tenant's admission queue plus its fair-share
// accounting. jobs[head:] are the waiting entries in policy order; cancelled
// jobs are removed lazily (skipped when the head is read, dropped wholesale
// before an SRJF re-sort) so a cancel storm against a deep backlog stays O(1)
// per cancel.
type tenantQueue struct {
	name   string
	weight float64
	jobs   []*Job
	head   int
	// waiting counts live queued jobs (excludes lazily cancelled entries).
	waiting int
	// reserved is the admission reservation currently held by this tenant's
	// admitted jobs — the deficit counter of the weighted pick. It is
	// corrected downward as jobs finish, so quota accounting tracks actual
	// holdings rather than historical grants.
	reserved float64
}

// skipCancelled advances head past lazily cancelled entries.
func (tq *tenantQueue) skipCancelled() {
	for tq.head < len(tq.jobs) && tq.jobs[tq.head].State == JobCancelled {
		tq.jobs[tq.head] = nil
		tq.head++
	}
	tq.maybeCompact()
}

// maybeCompact reclaims the consumed prefix once it dominates the slice, so
// queue memory is bounded by the live backlog, amortized O(1) per pop.
func (tq *tenantQueue) maybeCompact() {
	if tq.head > 32 && tq.head > len(tq.jobs)-tq.head {
		n := copy(tq.jobs, tq.jobs[tq.head:])
		clear(tq.jobs[n:])
		tq.jobs = tq.jobs[:n]
		tq.head = 0
	}
}

// pop removes and returns the head job. Callers must have ensured via
// skipCancelled that the head is live.
func (tq *tenantQueue) pop() *Job {
	j := tq.jobs[tq.head]
	tq.jobs[tq.head] = nil
	tq.head++
	tq.waiting--
	tq.maybeCompact()
	return j
}

// sortBySRJF compacts out cancelled entries, scores each live job against L,
// the admitted jobs' remaining work, and stable-sorts the live region by
// that priority, descending — the SRJF intra-queue order. Only this sort reads
// a queued job's priority, so only it computes one.
func (tq *tenantQueue) sortBySRJF(load resource.Vector) {
	live := tq.jobs[:0]
	for _, j := range tq.jobs[tq.head:] {
		if j.State != JobCancelled {
			j.priority = srjfScore(load, j.remaining)
			live = append(live, j)
		}
	}
	clear(tq.jobs[len(live):])
	tq.jobs = live
	tq.head = 0
	slices.SortStableFunc(tq.jobs, func(a, b *Job) int {
		switch {
		case a.priority > b.priority:
			return -1
		case a.priority < b.priority:
			return 1
		}
		return 0
	})
}

// PendingStage is a stage with ready, not yet placed tasks, the placement
// unit of Algorithm 1.
type PendingStage struct {
	Job   *Job
	Stage *dag.Stage
	Tasks []*dag.Task
}

// add appends a ready task, maintaining its O(1)-removal index.
func (ps *PendingStage) add(t *dag.Task) {
	t.SchedIdx = len(ps.Tasks)
	ps.Tasks = append(ps.Tasks, t)
}

// remove deletes a placed task in O(1) by swapping it with the last entry
// (order within a stage is not semantically meaningful; the placement score
// decides assignment, not pool position).
func (ps *PendingStage) remove(t *dag.Task) {
	i := t.SchedIdx
	if i < 0 || i >= len(ps.Tasks) || ps.Tasks[i] != t {
		return // not tracked in this pool entry
	}
	last := len(ps.Tasks) - 1
	ps.Tasks[i] = ps.Tasks[last]
	ps.Tasks[i].SchedIdx = i
	ps.Tasks[last] = nil
	ps.Tasks = ps.Tasks[:last]
	t.SchedIdx = -1
}

func newScheduler(sys *System) *Scheduler {
	return &Scheduler{sys: sys, tenants: make(map[string]*tenantQueue)}
}

// tenantFor returns (creating on first use) the tenant's queue. Weights come
// from Config.TenantWeights; unlisted tenants — including the empty default
// tenant — weigh 1.
func (s *Scheduler) tenantFor(name string) *tenantQueue {
	if tq, ok := s.tenants[name]; ok {
		return tq
	}
	w := 1.0
	if cw, ok := s.sys.Cfg.TenantWeights[name]; ok && cw > 0 {
		w = cw
	}
	tq := &tenantQueue{name: name, weight: w}
	s.tenants[name] = tq
	s.tenantSeq = append(s.tenantSeq, tq)
	return tq
}

// enqueue stamps a submitted job and parks it on its tenant's queue without
// running admission. The batch path enqueues many jobs and then runs one
// flushAdmission, amortizing the admission pass — priority refresh, queue
// sort, reservation checks — over the whole batch.
func (s *Scheduler) enqueue(j *Job) {
	j.Submitted = s.sys.Loop.Now()
	j.State = JobQueued
	j.jm = newJobManager(s.sys, j)
	tq := s.tenantFor(j.Spec.Tenant)
	tq.jobs = append(tq.jobs, j)
	tq.waiting++
	s.nqueued++
	s.sys.noteJobState(j)
}

// flushAdmission runs one admission pass over everything queued and makes
// sure the placement tick is live.
func (s *Scheduler) flushAdmission() {
	s.tryAdmit()
	s.ensureTicking()
}

// submit runs at a job's submission time: create the JM and try admission.
func (s *Scheduler) submit(j *Job) {
	s.enqueue(j)
	s.flushAdmission()
}

// cancel aborts a queued job: it is marked cancelled, removed lazily from
// its tenant queue, and counted as done. Jobs already admitted are past the
// point of no return here — their monotasks may be running on workers — so
// cancel reports false and leaves them alone.
func (s *Scheduler) cancel(j *Job) bool {
	if j.State != JobQueued {
		return false
	}
	j.State = JobCancelled
	j.Finished = s.sys.Loop.Now()
	tq := s.tenantFor(j.Spec.Tenant)
	tq.waiting--
	s.nqueued--
	s.sys.noteJobState(j)
	s.sys.jobDone(j)
	return true
}

// memEstimate returns M(j) clamped to the live cluster capacity so a single
// over-estimated job cannot deadlock admission.
func (s *Scheduler) memEstimate(j *Job, total float64) float64 {
	m := j.Spec.MemEstimate
	if m > total {
		m = total
	}
	return m
}

// liveTotalMem returns admission's capacity denominator: cluster-wide
// memory summed over workers that can still receive work. The fully-live
// fast path returns the static cluster total, bit-identical to the
// pre-elastic computation, so simulation results are unchanged when
// membership never degrades.
func (s *Scheduler) liveTotalMem() float64 {
	for _, w := range s.sys.Workers {
		if w.failed || w.draining {
			var total float64
			for _, lw := range s.sys.Workers {
				if !lw.failed && !lw.draining {
					total += lw.MemCapacity()
				}
			}
			return total
		}
	}
	return s.sys.Cluster.TotalMem()
}

// AdmissionPaused reports whether the last admission pass left jobs queued
// because no live worker capacity exists. Safe from any goroutine.
func (s *Scheduler) AdmissionPaused() bool { return s.paused.Load() }

// ReservedMem returns the cluster-wide memory currently reserved by
// admitted jobs. Loop-owned state: call on the control loop.
func (s *Scheduler) ReservedMem() float64 { return s.reservedMem }

// LiveCapacity returns admission's current capacity denominator — memory
// summed over workers that can still receive work. Loop-owned state: call
// on the control loop.
func (s *Scheduler) LiveCapacity() float64 { return s.liveTotalMem() }

// pickTenant returns the queue that feeds the next admission attempt: among
// tenants with a live waiting job, the one with the smallest reserved/weight
// deficit (ties broken by first-submission order, deterministically). This is
// the weighted-fair layer above the paper's intra-queue ordering.
func (s *Scheduler) pickTenant() *tenantQueue {
	var best *tenantQueue
	var bestKey float64
	for _, tq := range s.tenantSeq {
		tq.skipCancelled()
		if tq.head >= len(tq.jobs) {
			continue
		}
		key := tq.reserved / tq.weight
		if best == nil || key < bestKey {
			best, bestKey = tq, key
		}
	}
	return best
}

// tryAdmit admits queued jobs while the cluster-wide memory reservation
// allows (§4.2.2 "Job admission"). Each step offers the head job of the most
// underserved tenant; within a tenant the queue is examined in priority order
// under SRJF, submission order under EJF. Once a head job does not fit, the
// pass stops: later jobs wait behind it (starvation is handled by this strict
// ordering, as in existing schedulers).
func (s *Scheduler) tryAdmit() {
	if s.nqueued == 0 {
		s.paused.Store(false)
		return
	}
	total := s.liveTotalMem()
	if total <= 0 {
		// Every worker is drained or dead: admitting against a zero total
		// would clamp estimates to 0 and dispatch into a cluster that can
		// place nothing. Pause instead — jobs stay queued, and AddWorker
		// re-runs this pass when capacity returns.
		s.paused.Store(true)
		return
	}
	s.paused.Store(false)
	if s.sys.Cfg.Policy == SRJF {
		s.refreshPriorities()
		load := s.admittedLoad()
		for _, tq := range s.tenantSeq {
			tq.sortBySRJF(load)
		}
	}
	for s.nqueued > 0 {
		tq := s.pickTenant()
		if tq == nil {
			break // only lazily cancelled entries remained
		}
		j := tq.jobs[tq.head]
		m := s.memEstimate(j, total)
		if s.reservedMem+m > total {
			break
		}
		s.reservedMem += m
		// Snapshot the reserved amount on the job: the release at finish
		// must return exactly what admission took, even if cluster capacity
		// (and hence the memEstimate clamp) changed in between, e.g. after a
		// worker failure.
		j.reservedMem = m
		tq.reserved += m
		tq.pop()
		s.nqueued--
		s.admit(j)
	}
}

func (s *Scheduler) admit(j *Job) {
	j.State = JobAdmitted
	j.Admitted = s.sys.Loop.Now()
	s.admitted = append(s.admitted, j)
	s.sys.noteJobState(j)
	j.jm.onAdmit()
}

// addReadyTasks registers estimated, ready tasks for the next placement
// pass: the next scheduling interval in simulation, the event pass
// PlaceIfChanged runs on a live driver. The job's stage index makes the common
// case — all tasks landing in existing pool entries — O(tasks) instead of
// O(pool).
func (s *Scheduler) addReadyTasks(j *Job, tasks []*dag.Task) {
	if j.pendingIdx == nil {
		j.pendingIdx = make(map[*dag.Stage]*PendingStage)
	}
	for _, t := range tasks {
		ps, ok := j.pendingIdx[t.Stage]
		if !ok {
			ps = &PendingStage{Job: j, Stage: t.Stage}
			j.pendingIdx[t.Stage] = ps
			s.pending = append(s.pending, ps)
		}
		ps.add(t)
	}
	s.placeChanged = true
	s.ensureTicking()
}

// taskFinished lets the active placer observe whole-task completions; the
// peak-demand baselines (Tetris, Capacity) release their availability
// accounting only here, unlike Ursa's per-monotask release.
func (s *Scheduler) taskFinished(j *Job, t *dag.Task, w *Worker) {
	if tf, ok := s.sys.Cfg.Placer.(TaskFinishObserver); ok && tf != nil {
		tf.TaskFinished(t, w)
	}
}

// jobFinished finalizes a job, releases its reservation and re-runs
// admission. The release uses the reservation snapshotted at admission, not
// a recomputed estimate: recomputing against the current cluster capacity
// would leak (or over-release) reservation whenever capacity changed between
// admit and finish, e.g. under worker failures. The tenant's deficit counter
// releases the same snapshot, keeping quota accounting honest as jobs
// complete.
func (s *Scheduler) jobFinished(j *Job) {
	j.State = JobFinished
	j.Finished = s.sys.Loop.Now()
	s.reservedMem -= j.reservedMem
	if s.reservedMem < 0 {
		s.reservedMem = 0
	}
	tq := s.tenantFor(j.Spec.Tenant)
	tq.reserved -= j.reservedMem
	if tq.reserved < 0 {
		tq.reserved = 0
	}
	j.reservedMem = 0
	for i, a := range s.admitted {
		if a == j {
			s.admitted = append(s.admitted[:i], s.admitted[i+1:]...)
			break
		}
	}
	if len(s.admitted) == 0 { // so what the subtractions left is float dust
		s.reservedMem = 0
		for _, tq := range s.tenantSeq {
			tq.reserved = 0
		}
	}
	s.sys.noteJobState(j)
	s.tryAdmit()
	s.sys.jobDone(j)
}

// TenantShare is one tenant's fair-share accounting snapshot.
type TenantShare struct {
	Tenant   string  // tenant name ("" = default)
	Weight   float64 // configured fair-share weight
	Reserved float64 // admission reservation currently held, bytes
	Queued   int     // live jobs waiting in the tenant's queue
}

// TenantShares snapshots per-tenant accounting in first-submission order.
// Loop-owned state: call on the control loop.
func (s *Scheduler) TenantShares() []TenantShare {
	out := make([]TenantShare, 0, len(s.tenantSeq))
	for _, tq := range s.tenantSeq {
		out = append(out, TenantShare{
			Tenant: tq.name, Weight: tq.weight,
			Reserved: tq.reserved, Queued: tq.waiting,
		})
	}
	return out
}

// QueuedCount returns the number of live queued (not yet admitted) jobs.
// Loop-owned state: call on the control loop.
func (s *Scheduler) QueuedCount() int { return s.nqueued }

// AdmittedCount returns the number of currently admitted jobs. Loop-owned
// state: call on the control loop.
func (s *Scheduler) AdmittedCount() int { return len(s.admitted) }

// PlacementPasses returns how many placement passes have run, split by
// trigger: event counts passes run by PlaceIfChanged, timer those run by the
// periodic SchedInterval tick. Loop-owned state: call on the control loop.
func (s *Scheduler) PlacementPasses() (event, timer uint64) {
	return s.eventPasses, s.passes - s.eventPasses
}

// PlacementScans returns how many tasks Algorithm 1's stage scans have
// visited (ranking and commit passes alike) and how many of those it settled
// without scoring a single worker, because some stage-mate that failed
// earlier in the same scan proved no worker could host them (every failure of
// a scan is kept, see failTable). Both are counts of decisions, not of time: a
// seeded simulation repeats them exactly. Zero under any other placer.
// Loop-owned state: call on the control loop.
func (s *Scheduler) PlacementScans() (scanned, skipped uint64) {
	return s.pctx.scanned, s.pctx.skipped
}

// ShareError measures how far reservation holdings sit from the weighted
// fair point: the maximum over demanding tenants of |share_i − fairShare_i|,
// where share_i is the tenant's fraction of all reserved memory and
// fairShare_i its fraction of the demanding tenants' total weight. Tenants
// with neither a reservation nor waiting jobs are not demanding and are
// excluded (DRF charges no one for resources nobody wants). Returns 0 when
// nothing is reserved.
func ShareError(shares []TenantShare) float64 {
	var sumW, sumR float64
	for _, ts := range shares {
		if ts.Reserved <= 0 && ts.Queued == 0 {
			continue
		}
		sumW += ts.Weight
		sumR += ts.Reserved
	}
	if sumR <= 0 || sumW <= 0 {
		return 0
	}
	var worst float64
	for _, ts := range shares {
		if ts.Reserved <= 0 && ts.Queued == 0 {
			continue
		}
		d := ts.Reserved/sumR - ts.Weight/sumW
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// ensureTicking starts the periodic placement tick when there is work.
func (s *Scheduler) ensureTicking() {
	if s.ticking {
		return
	}
	s.ticking = true
	s.stopTick = s.sys.Loop.Every(s.sys.Cfg.SchedInterval, s.tick)
}

// PlaceIfChanged runs one placement pass if ready tasks were added or worker
// capacity was freed since the last pass and there is something to place.
// The live path installs it as the driver's end-of-batch hook, so a task is
// placed in the batch that made it ready instead of waiting out the
// interval; one batch runs at most one pass, however many completions or
// submissions it carried, and whatever arrives during a pass waits in the
// inbox for the next batch, so passes run no faster than one per pass time.
// Tasks the pass cannot place stay in the pool for the periodic tick.
//
// Event passes are for short jobs (Job.short), whose completion time the wait
// for a tick could double. A pool that holds only longer jobs' tasks is left
// to the tick, as the paper places every task: such a job computes for
// several intervals, and started per event it too is bounded by nothing but
// the CPU. A pass that a short job triggers places whatever is in the pool.
// Loop-owned: call on the control loop.
func (s *Scheduler) PlaceIfChanged() {
	if !s.placeChanged {
		return
	}
	if !s.shortPending() {
		s.placeChanged = false
		return
	}
	s.eventPasses++
	s.tick()
}

// shortPending reports whether a short job has a task in the pool.
func (s *Scheduler) shortPending() bool {
	for _, ps := range s.pending {
		if ps.Job.short {
			return true
		}
	}
	return false
}

// tick is one placement pass: refresh the admitted jobs' priorities, run
// placement over the pending pool, dispatch the resulting assignments. The
// SchedInterval timer runs it whatever has or has not changed, because time
// alone makes tasks placeable (APT decays below EPT, the W·T aging term
// grows, rate windows roll); PlaceIfChanged runs the same pass when an event
// did.
func (s *Scheduler) tick() {
	if len(s.pending) == 0 {
		// Nothing placeable: stop ticking until new ready tasks arrive.
		// Queued jobs need no tick — admission is retried when a running
		// job finishes, and every path that produces ready tasks calls
		// ensureTicking.
		s.ticking = false
		s.stopTick()
		return
	}
	s.passes++
	s.placeChanged = false
	s.refreshPriorities()
	placer := s.sys.Cfg.Placer
	if placer == nil {
		placer = defaultPlacer
	}
	s.pctx.Now = s.sys.Loop.Now()
	s.pctx.Cfg = &s.sys.Cfg
	s.pctx.Workers = s.sys.Workers
	s.pctx.Pending = s.pending
	s.pctx.orderBoost = s.orderBoost
	placements := placer.Place(&s.pctx)
	for _, pl := range placements {
		pl.Stage.remove(pl.Task)
		pl.Stage.Job.jm.taskPlaced(pl.Task, pl.Worker)
	}
	// Drop exhausted pool entries in place, maintaining the per-job index.
	live := s.pending[:0]
	for _, ps := range s.pending {
		if len(ps.Tasks) > 0 {
			live = append(live, ps)
		} else {
			delete(ps.Job.pendingIdx, ps.Stage)
		}
	}
	for i := len(live); i < len(s.pending); i++ {
		s.pending[i] = nil
	}
	s.pending = live
}

// refreshPriorities recomputes each admitted job's ordering score (§4.2.2)
// and the ranks placement reads. EJF uses the submission time; SRJF ranks
// jobs by the inverse of (2L−R)·R normalized by L, so when a resource is
// heavily demanded, more weight goes to picking the job with the smallest
// remaining work on it. Queued jobs are left alone: placement never reads
// them, and SRJF admission scores them itself (tenantQueue.sortBySRJF), so a
// pass costs what is admitted, not what is queued.
func (s *Scheduler) refreshPriorities() {
	switch s.sys.Cfg.Policy {
	case EJF:
		for _, j := range s.admitted {
			j.priority = -j.Submitted.Seconds()
		}
	case SRJF:
		load := s.admittedLoad()
		for _, j := range s.admitted {
			j.priority = srjfScore(load, j.remaining)
		}
	}
	s.computeRanks()
}

// admittedLoad returns SRJF's L: the total remaining work of admitted jobs.
func (s *Scheduler) admittedLoad() resource.Vector {
	var load resource.Vector
	for _, j := range s.admitted {
		load = load.Add(j.remaining)
	}
	return load
}

// srjfScore is SRJF's priority of a job with the given remaining work against
// the load L: the inverse of Σ_r (2L_r−R_r)·R_r/L_r.
func srjfScore(load, remaining resource.Vector) float64 {
	var p float64
	for _, k := range resource.Kinds {
		l, r := load[k], remaining[k]
		if l <= 0 {
			continue
		}
		p += (2*l - r) * r / l
	}
	if p <= 0 {
		return 1e18 // effectively done: run it first to finish it
	}
	return 1 / p
}

// computeRanks caches every admitted job's ordering rank — the number of
// admitted jobs with strictly higher priority — in one O(n log n) pass, so
// orderBoost is an O(1) lookup instead of an O(admitted) scan per pending
// stage per tick. Ranks are valid until the next refreshPriorities; the
// placement pass never runs between the two.
func (s *Scheduler) computeRanks() {
	buf := s.rankBuf[:0]
	for _, j := range s.admitted {
		buf = append(buf, j.priority)
	}
	slices.Sort(buf)
	s.rankBuf = buf
	n := len(buf)
	for _, j := range s.admitted {
		p := j.priority
		// rank = #(priorities strictly greater than p)
		//      = n − upper_bound(p) over the ascending-sorted priorities.
		j.rank = n - sort.Search(n, func(i int) bool { return buf[i] > p })
	}
}

// jobRankStep is the per-rank additive placement boost. It exceeds the
// maximum possible per-task F contribution (Σ_r D_r·min(Inc_r,D_r) ≤ 4), so
// among stages that place equally completely, job ordering strictly
// prevails — the behaviour §5.3 relies on for simultaneously submitted
// jobs, where the W·T aging term alone cannot break ties.
const jobRankStep = 5.0

// orderBoost converts a job's ordering state into the additive placement
// score of §4.2.2: a rank term that enforces the policy order (EJF or SRJF)
// plus the paper's W·T aging term. The rank was cached by computeRanks at
// the last priority refresh, so each lookup is O(1).
func (s *Scheduler) orderBoost(j *Job, now eventloop.Time) float64 {
	if s.sys.Cfg.DisableJobOrdering {
		return 0
	}
	boost := jobRankStep * float64(len(s.admitted)-j.rank)
	if s.sys.Cfg.Policy == EJF {
		boost += s.sys.Cfg.OrderingWeight * (now - j.Submitted).Seconds()
	}
	return boost
}
