package core

import (
	"math"
	"slices"

	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// Placement assigns one task to one worker.
type Placement struct {
	Stage  *PendingStage
	Task   *dag.Task
	Worker *Worker
}

// PlaceContext is the scheduler state handed to a placement algorithm at
// each scheduling interval. Worker rates and memory levels are snapshotted
// per worker and carried from one interval to the next, refreshed only for
// workers whose state changed (see prepare): placement is O(stages × tasks
// × workers) in the worst case, so per-candidate indirection matters. On a
// saturated pool, where most tasks find no worker, the scan pays the worker
// factor only for the tasks the earlier failures of the same stage scan do
// not already rule out (see failTable): O(stages × tasks) plus O(workers) per
// task that has to be scored.
//
// The context owns all scratch state the placement pass needs (headroom
// vectors, the trial-placement undo journal, candidate ranking and output
// buffers) and reuses it across scheduling intervals, so a steady-state tick
// runs without heap allocation. The scheduler keeps one PlaceContext alive
// for the lifetime of the run; slices returned by Place are valid only until
// the next Place call on the same context.
type PlaceContext struct {
	Now     eventloop.Time
	Cfg     *Config
	Workers []*Worker
	Pending []*PendingStage

	// Per-worker snapshots, indexed like Workers; resized lazily and reused
	// across ticks.
	invRateEPT [][3]float64 // 1/(rate_k · EPT)
	memFree    []float64
	memCap     []float64

	// Interference penalty state (Config.InterferencePenalty). dev holds
	// each worker's observed-vs-nominal CPU rate deviation (the no-decay
	// Worker.Deviation signal), refreshed with the rest of the worker's
	// snapshot; pen holds the derived per-worker score
	// factor in [penFloor, 1]. The signal is CPU-only: network and disk
	// observed rates drop below nominal whenever the scheduler's own
	// placements share a link (per-flow fair sharing), so a below-nominal
	// observation there is self-inflicted load — already modelled by the
	// D_r headroom term — not external interference. Both slices are
	// allocated only when the flag is on, so the default path stays
	// allocation-free and bit-identical.
	dev    []float64
	pen    []float64
	usePen bool

	// d holds the per-worker headroom vectors for the current interval.
	d []dVec
	// undo journals the ranking pass's trial mutations of d, one stage at a
	// time, so a plan rolls back without copying the whole headroom array.
	undo []undoEntry
	// cands ranks viable stages within one interval.
	cands []stageCand
	// out accumulates the interval's placements.
	out []Placement

	// Snapshot bookkeeping. A worker's snapshot is refreshed only when its
	// epoch moved since the last refresh (markDirty), its time-driven
	// staleness deadline passed (a rate-window boundary with pending
	// samples), or the previous commit pass mutated its headroom vector
	// (touched). snapValid is false until the first pass has filled every
	// entry.
	snapEpoch []uint64
	staleAt   []eventloop.Time
	refreshed []bool // workers whose snapshot was refreshed this tick
	touched   []bool // d mutated by the last commit pass → force refresh
	snapValid bool

	// headroom counts workers with any positive d entry, maintained by the
	// commit path so anyHeadroom is O(1) instead of O(W) per query.
	headroom int

	// exhaustive keeps stageScoreOn's failure table empty: every task is
	// scored against every worker. Only FullRebuildPlacer sets it, so the
	// reference the equivalence suites compare against checks the pruning
	// instead of sharing it.
	exhaustive bool
	// scanned counts the tasks stageScoreOn has visited over the context's
	// lifetime, skipped those among them an earlier failure of the same scan
	// settled without scoring a worker (Scheduler.PlacementScans).
	scanned, skipped uint64

	orderBoost func(*Job, eventloop.Time) float64
}

// undoEntry records one worker's headroom vector before a trial placement
// mutated it.
type undoEntry struct {
	wi  int
	old dVec
}

// stageCand is one ranked candidate stage of the two-pass batch placement.
type stageCand struct {
	ps    *PendingStage
	score float64
}

// OrderBoost returns the W·T job-ordering score addend for a stage of job j.
func (ctx *PlaceContext) OrderBoost(j *Job) float64 {
	if ctx.orderBoost == nil {
		return 0
	}
	return ctx.orderBoost(j, ctx.Now)
}

// prepare brings the per-worker snapshots up to date for this interval. It
// re-reads only workers that are dirty (epoch moved), time-stale (a
// rate-window boundary with pending samples passed) or were mutated by the
// previous commit pass. Skipping the others is exact, not approximate: every
// mutation of a worker's queues, load, cores, memory or liveness calls
// markDirty, and rate blending is anchored to the monitor's window grid (see
// rateMonitor.roll), so a clean worker's rates, deviation, memory and APT
// are provably what they were at its last refresh. The first pass on a
// context, and any pass after the worker count changed, reads every worker.
func (ctx *PlaceContext) prepare() {
	ept := ctx.Cfg.EPT.Seconds()
	n := len(ctx.Workers)
	full := !ctx.snapValid || len(ctx.d) != n
	if cap(ctx.invRateEPT) < n {
		ctx.invRateEPT = make([][3]float64, n)
		ctx.memFree = make([]float64, n)
		ctx.memCap = make([]float64, n)
		ctx.d = make([]dVec, n)
		ctx.snapEpoch = make([]uint64, n)
		ctx.staleAt = make([]eventloop.Time, n)
		ctx.refreshed = make([]bool, n)
		ctx.touched = make([]bool, n)
		full = true
	} else {
		ctx.invRateEPT = ctx.invRateEPT[:n]
		ctx.memFree = ctx.memFree[:n]
		ctx.memCap = ctx.memCap[:n]
		ctx.d = ctx.d[:n]
		ctx.snapEpoch = ctx.snapEpoch[:n]
		ctx.staleAt = ctx.staleAt[:n]
		ctx.refreshed = ctx.refreshed[:n]
		ctx.touched = ctx.touched[:n]
	}
	ctx.usePen = ctx.Cfg.InterferencePenalty
	if ctx.usePen && cap(ctx.dev) < n {
		ctx.dev = make([]float64, n)
		ctx.pen = make([]float64, n)
	} else if ctx.usePen {
		ctx.dev = ctx.dev[:n]
		ctx.pen = ctx.pen[:n]
	}
	for i, w := range ctx.Workers {
		refresh := full || ctx.touched[i] || w.epoch != ctx.snapEpoch[i] || ctx.Now >= ctx.staleAt[i]
		ctx.refreshed[i] = refresh
		ctx.touched[i] = false
		if !refresh {
			continue
		}
		ctx.snapEpoch[i] = w.epoch
		ctx.invRateEPT[i] = [3]float64{}
		if w.failed || w.draining {
			ctx.memFree[i] = -1 // every placement gate rejects the worker
			ctx.memCap[i] = w.MemCapacity()
			ctx.staleAt[i] = staleNever
			if ctx.usePen {
				ctx.dev[i] = 0 // excluded from the deviation max
			}
			continue
		}
		for _, k := range resource.MonotaskKinds {
			rate := w.Rate(k)
			if rate > 0 {
				ctx.invRateEPT[i][k] = 1 / (rate * ept)
			}
		}
		if ctx.usePen {
			ctx.dev[i] = w.Deviation(resource.CPU)
		}
		ctx.memFree[i] = w.MemFree()
		ctx.memCap[i] = w.MemCapacity()
		// Reading the rates above rolled the monitors to Now, so the
		// staleness deadline is the next window boundary still pending.
		ctx.staleAt[i] = w.snapshotStaleAt()
	}
	ctx.snapValid = true
	if ctx.usePen {
		ctx.computePenalty()
	}
}

// penFloor keeps a contended worker's score factor strictly positive so it
// can still absorb work when nothing better is available, and keeps the
// tie-break order (earliest worker on equal F) meaningful.
const penFloor = 0.01

// computePenalty derives each worker's score factor from the deviation
// snapshot: deviations are normalized against the best live worker's, so
// on a cluster delivering its declared rates every factor is ≈1 and the
// penalty is inert; a worker measuring below its profile — interference
// the profile doesn't declare — is scaled down. Normalizing against the
// observed best rather than the absolute ratio keeps the factor
// insensitive to workload properties (compute intensity, dispatch
// overhead) that displace *every* worker's measured rate from nominal by
// the same factor.
//
// The factor is the *square* of the normalized deviation, and the
// exponent is load-bearing: the score term Inc_cpu ∝ 1/rate is inflated
// on a slow worker (the same task consumes a larger share of a smaller
// rate), so a first-power penalty merely cancels that inflation, leaving
// F indifferent to interference — the blind preference survives in the
// rounding noise. Squaring makes the penalized CPU term strictly
// increasing in the delivered rate, which is what actually steers work
// toward machines that deliver.
//
// The factor scales the worker's *whole* score F, not just its CPU term.
// A stage finishes when its slowest task does, so a below-profile machine
// is a straggler risk for any task placed on it — including network- or
// disk-dominant tasks, whose fetch/merge pipelines still compete for the
// contended CPU — and a per-term discount would let a shuffle task's
// untouched network term steer it onto a machine the CPU evidence says to
// avoid.
//
// The factors are recomputed from dev every tick in O(W); dev itself is
// refreshed with the worker's snapshot, so with clean workers the inputs —
// and therefore the factors — are bitwise stable and prepare's exactness
// argument carries over.
func (ctx *PlaceContext) computePenalty() {
	maxDev := 0.0
	for i, d := range ctx.dev {
		if ctx.memFree[i] < 0 {
			continue // failed or draining: not a reference point
		}
		if d > maxDev {
			maxDev = d
		}
	}
	for i := range ctx.pen {
		p := 1.0
		if maxDev > 0 {
			p = ctx.dev[i] / maxDev
			p *= p
		}
		if p < penFloor {
			p = penFloor
		} else if p > 1 {
			p = 1
		}
		ctx.pen[i] = p
	}
}

// Placer is a task placement algorithm. Algorithm 1 is the default;
// baselines (Tetris, Capacity) implement this interface too (§5.1.2). The
// returned slice may be reused by the placer on its next Place call.
type Placer interface {
	Place(ctx *PlaceContext) []Placement
}

// TaskFinishObserver is implemented by placers that track worker
// availability at whole-task granularity (the peak-demand baselines).
type TaskFinishObserver interface {
	TaskFinished(t *dag.Task, w *Worker)
}

// stageBonus is Algorithm 1's "large number" rewarded to plans that place
// every task of a stage, so complete stages win over partial ones.
const stageBonus = 1000.0

var defaultPlacer Placer = Algorithm1{}

// Algorithm1 is the paper's stage-aware, load-balancing task placement. For
// every worker it computes D_r(w) = max(0, (EPT − APT_r(w))/EPT) (and
// D_mem = free/capacity); for every candidate (task, worker) it computes
// F(t,w) = Σ_r D_r(w)·Inc_r(t,w) and places whole stages greedily by score.
type Algorithm1 struct{}

// dVec is D = {D_cpu, D_net, D_disk, D_mem} for one worker.
type dVec [4]float64

// anyVec reports whether any component of v is positive.
func anyVec(v *dVec) bool {
	return v[0] > 0 || v[1] > 0 || v[2] > 0 || v[3] > 0
}

// smallSortThreshold is the candidate-pool size above which ranking switches
// from insertion sort to slices.SortStableFunc. Insertion sort wins on the
// small pools of steady-state ticks (no indirect calls) but is O(n²); deep
// pending pools take the O(n log n) path. Both orders are stable descending,
// so the tie-break order is identical.
const smallSortThreshold = 32

func (Algorithm1) Place(ctx *PlaceContext) []Placement {
	ctx.prepare()
	ctx.computeD()
	ctx.out = ctx.out[:0]
	if ctx.Cfg.DisableStageAware {
		// Ablation (§5.2): repeatedly pick the single best-scoring task
		// across all stages instead of whole stages.
		for ctx.headroom > 0 {
			pl, ok := bestSingleTask(ctx)
			if !ok {
				break
			}
			ctx.commit(pl.Task, pl.Worker.ID)
			// Mark as planned so bestSingleTask skips it within this interval.
			pl.Task.Worker = pl.Worker.ID
			ctx.out = append(ctx.out, pl)
		}
		return ctx.out
	}
	// Two-pass batch variant of Algorithm 1: rank every pending stage by
	// its StageScore (plus the job-ordering boost) against the interval's
	// initial headroom, then commit plans in rank order, recomputing each
	// stage's plan against the updated D just before committing. This
	// preserves the greedy stage-at-a-time semantics while keeping each
	// interval O(2 · stages · tasks · workers). Trial plans mutate D in
	// place and roll back through the undo journal, so no candidate copies
	// the headroom array.
	ctx.rankPass()
	cands := ctx.cands
	if len(cands) > smallSortThreshold {
		// slices.SortStableFunc keeps the concrete []stageCand type through
		// the sort — sort.SliceStable boxes the slice into an interface and
		// allocates a closure header, the last allocations on this path.
		slices.SortStableFunc(cands, func(a, b stageCand) int {
			switch {
			case a.score > b.score:
				return -1
			case a.score < b.score:
				return 1
			}
			return 0
		})
	} else {
		for i := 1; i < len(cands); i++ { // insertion sort: pools are small
			for j := i; j > 0 && cands[j].score > cands[j-1].score; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
	}
	for _, c := range cands {
		if ctx.headroom == 0 {
			break
		}
		if !stageViable(ctx, c.ps) {
			continue
		}
		ctx.stageScoreOn(c.ps, true)
	}
	return ctx.out
}

// rankPass runs the keep=false ranking pass of the two-pass placement,
// filling ctx.cands with the viable stages and their scores against the
// interval's initial headroom (stageScoreOn restores it after every stage).
func (ctx *PlaceContext) rankPass() {
	ctx.cands = ctx.cands[:0]
	for _, ps := range ctx.Pending {
		if !stageViable(ctx, ps) {
			continue
		}
		score, placed := ctx.stageScoreOn(ps, false)
		if placed == 0 {
			continue
		}
		ctx.cands = append(ctx.cands, stageCand{ps, score + ctx.OrderBoost(ps.Job)})
	}
}

// stageViable cheaply rejects stages no worker can currently host, judging
// the whole stage by one representative, ps.Tasks[0]. This keeps saturated
// scheduling intervals cheap.
//
// The representative stands for its stage-mates' resource kinds (in every
// shipped workload the tasks of a stage demand the same kinds) but not for
// their memory: estimates differ from task to task (about 46 % of the TPC-H
// mix's task scans see an EstUsage unlike the previous task's), pool order is
// arbitrary (PendingStage.remove swaps), and Tasks[0] is not the smallest. A
// stage whose first task happens to be one no worker has memory for is
// skipped whole while smaller stage-mates would fit. Known and left as is:
// testing the stage's least memory instead changes schedules and every paper
// table (ROADMAP item 8).
func stageViable(ctx *PlaceContext, ps *PendingStage) bool {
	if len(ps.Tasks) == 0 {
		return false
	}
	t := ps.Tasks[0]
	needs := [3]bool{}
	for _, k := range resource.MonotaskKinds {
		if k == resource.Net && ctx.Cfg.IgnoreNetworkDemand {
			continue
		}
		needs[k] = t.EstUsage[k] > 0
	}
	mem := t.EstUsage[resource.Mem]
	for wi := range ctx.d {
		d := &ctx.d[wi]
		hosts := ctx.memFree[wi] >= mem
		for k := 0; hosts && k < 3; k++ {
			hosts = !(needs[k] && d[k] <= 0)
		}
		if hosts {
			return true
		}
	}
	return false
}

// computeD evaluates the headroom vectors of the workers prepare refreshed
// from live worker state into the context's reusable buffer (a clean
// worker's APT inputs are unchanged by construction) and recounts the
// workers that retain any headroom.
func (ctx *PlaceContext) computeD() []dVec {
	ept := ctx.Cfg.EPT.Seconds()
	d := ctx.d
	for i, w := range ctx.Workers {
		if !ctx.refreshed[i] {
			continue
		}
		for _, k := range resource.MonotaskKinds {
			v := (ept - w.APT(k)) / ept
			if v < 0 {
				v = 0
			}
			d[i][k] = v
		}
		d[i][resource.Mem] = ctx.memFree[i] / ctx.memCap[i]
	}
	ctx.headroom = 0
	for i := range d {
		if anyVec(&d[i]) {
			ctx.headroom++
		}
	}
	return d
}

// incVec computes Inc_r(t,w): the normalized load increase on each resource
// if t is placed on w (§4.2.2). CPU/network/disk increases are estimated
// usage divided by the worker's type-r processing rate, normalized by EPT;
// memory is the estimated usage normalized by capacity.
func incVec(ctx *PlaceContext, t *dag.Task, wi int) dVec {
	var inc dVec
	f := &ctx.invRateEPT[wi]
	inc[resource.CPU] = t.EstUsage[resource.CPU] * f[resource.CPU]
	if !ctx.Cfg.IgnoreNetworkDemand {
		inc[resource.Net] = t.EstUsage[resource.Net] * f[resource.Net]
	}
	inc[resource.Disk] = t.EstUsage[resource.Disk] * f[resource.Disk]
	inc[resource.Mem] = t.EstUsage[resource.Mem] / ctx.memCap[wi]
	return inc
}

// scoreTask computes F(t,w) against w's headroom d, returning ok=false when
// w is not viable: it is failed or draining (memFree carries the -1
// sentinel), it lacks memory, some resource is exhausted (D_r = 0) while the
// task needs it (Inc_r > 0) — placing there would block the task (§4.2.2) —
// or the task demands nothing at all while the worker retains no headroom on
// any dimension (a zero-estimate task must not land on a saturated worker).
// With Config.InterferencePenalty the score is scaled by the worker's
// observed-vs-nominal penalty factor (see computePenalty); scaling by
// exactly 1.0 when the flag is off would leave F bit-identical, and the
// branch keeps even that multiply off the default path.
//
// It runs once per (task, worker) candidate, so nothing array-sized crosses
// the call: d comes by pointer, and the increase is not returned, because
// only the winning worker's is ever applied and incVec recomputes that one
// exactly (it reads nothing a pass changes).
func scoreTask(ctx *PlaceContext, t *dag.Task, wi int, d *dVec) (f float64, ok bool) {
	if ctx.memFree[wi] < 0 || ctx.memFree[wi] < t.EstUsage[resource.Mem] {
		return 0, false
	}
	inc := incVec(ctx, t, wi)
	demanding := false
	for k, dk := range d {
		ik := inc[k]
		if ik <= 0 {
			continue
		}
		demanding = true
		if dk <= 0 {
			return 0, false
		}
		if ik > dk {
			// Availability is bounded by D_r: cap the contribution.
			ik = dk
		}
		f += dk * ik
	}
	if !demanding && !anyVec(d) {
		return 0, false
	}
	if ctx.usePen {
		f *= ctx.pen[wi]
	}
	return f, true
}

// bestWorkerFor scores t against every worker's current headroom and returns
// the highest-F viable one, or -1. Ties keep the lowest worker ID.
func (ctx *PlaceContext) bestWorkerFor(t *dag.Task) (bestW int, bestF float64) {
	bestW = -1
	d := ctx.d
	for wi := range d {
		f, ok := scoreTask(ctx, t, wi, &d[wi])
		if ok && (bestW < 0 || f > bestF) {
			bestW, bestF = wi, f
		}
	}
	return bestW, bestF
}

// applyInc subtracts t's load increase on worker wi from its headroom.
func applyInc(ctx *PlaceContext, t *dag.Task, wi int, d *dVec) {
	inc := incVec(ctx, t, wi)
	for k := range d {
		d[k] -= inc[k]
		if d[k] < 0 {
			d[k] = 0
		}
	}
}

// failTable records the failures of one stageScoreOn scan: per demand mask
// (demandMask), the least memory estimate of a task of the scan for which
// bestWorkerFor found no worker, +Inf (set by the scan) while there is none.
type failTable [8]float64

// demandMask returns the resource kinds t demands as a bit set (1<<kind),
// without the network bit under IgnoreNetworkDemand (incVec scores no network
// increase for anyone), or -1 when an estimate is NaN.
func (ctx *PlaceContext) demandMask(t *dag.Task) int {
	mask := 0
	for _, k := range resource.MonotaskKinds {
		if u := t.EstUsage[k]; u != u {
			return -1
		} else if u > 0 && !(k == resource.Net && ctx.Cfg.IgnoreNetworkDemand) {
			mask |= 1 << k
		}
	}
	return mask
}

// record notes that a task demanding mask and needing mem found no worker.
func (f *failTable) record(mask int, mem float64) {
	if mask >= 0 && mem < f[mask] {
		f[mask] = mem
	}
}

// rulesOut reports whether a task demanding mask and needing mem is certain
// to find no worker because a recorded task, one that demanded a subset of
// mask and needed at most mem, found none. Within one scan the headroom
// vectors only shrink (applyInc subtracts a non-negative increase; the
// keep=false rollback runs after the loop) while memFree, invRateEPT, memCap
// and pen do not change, so every reason scoreTask gave for rejecting the
// recorded task on worker w holds for this one on w: the memory gate (memFree
// < recorded mem ≤ mem), a demanded dimension with D ≤ 0 (demanded here too,
// memory included), or no demand at all on a worker with no headroom
// (whatever this task demands there has D ≤ 0, and if it demands nothing it
// fails the same test). The argument holds per recorded failure, so the table
// keeps them all. It needs finite, non-negative estimates (dag.Plan.Estimate
// guarantees them); a task with a NaN estimate (mask -1, or a mem no
// comparison accepts) is neither recorded nor ruled out.
func (f *failTable) rulesOut(mask int, mem float64) bool {
	for m := 0; m <= mask; m++ {
		if m&^mask == 0 && mem >= f[m] {
			return true
		}
	}
	return false
}

// stageScoreOn implements the StageScore function of Algorithm 1. It plans
// the stage's tasks greedily against the interval's headroom ctx.d, mutating
// it in place. When keep is false (the ranking pass) every mutation is
// journalled in ctx.undo and rolled back before returning, so the headroom is
// restored to its pre-call state and no context-level state is touched. When
// keep is true (the commit pass) the mutations stand, the plan's placements
// are appended to ctx.out, mutated workers are marked for snapshot refresh,
// and the O(1) headroom count is maintained. It returns the normalized score
// (plus the stage bonus when every task was placed) and the number of tasks
// placed.
//
// Every task of the scan that no worker can host is recorded in a failTable,
// and a later task a recorded failure rules out is not scored: it would have
// failed, and a failed task adds nothing to the score and only clears the
// bonus, which the recorded failure already did, so plan and score are
// bit-identical to the exhaustive scan's. The table lives for one call, and
// the exhaustive reference records nothing in it.
func (ctx *PlaceContext) stageScoreOn(ps *PendingStage, keep bool) (float64, int) {
	d := ctx.d
	score := 0.0
	placed := 0
	bonus := stageBonus
	var fails failTable
	for m := range fails {
		fails[m] = math.Inf(1)
	}
	skipped := 0
	for _, t := range ps.Tasks {
		mask, mem := ctx.demandMask(t), t.EstUsage[resource.Mem]
		if fails.rulesOut(mask, mem) {
			skipped++
			continue
		}
		w, f := ctx.bestWorkerFor(t)
		if w < 0 {
			bonus = 0
			if !ctx.exhaustive {
				fails.record(mask, mem)
			}
			continue
		}
		if keep {
			ctx.commit(t, w)
			ctx.out = append(ctx.out, Placement{Stage: ps, Task: t, Worker: ctx.Workers[w]})
		} else {
			ctx.undo = append(ctx.undo, undoEntry{wi: w, old: d[w]})
			applyInc(ctx, t, w, &d[w])
		}
		score += f
		placed++
	}
	ctx.scanned += uint64(len(ps.Tasks))
	ctx.skipped += uint64(skipped)
	for i := len(ctx.undo) - 1; i >= 0; i-- {
		e := &ctx.undo[i]
		d[e.wi] = e.old
	}
	ctx.undo = ctx.undo[:0]
	if placed == 0 {
		return 0, 0
	}
	return score/float64(placed) + bonus, placed
}

// bestSingleTask is the non-stage-aware ablation: the highest-F (task,
// worker) pair across the whole pool, with the job-ordering boost applied
// per task.
func bestSingleTask(ctx *PlaceContext) (Placement, bool) {
	best := Placement{}
	bestScore := 0.0
	found := false
	for _, ps := range ctx.Pending {
		if !stageViable(ctx, ps) {
			continue
		}
		boost := ctx.OrderBoost(ps.Job)
		for _, t := range ps.Tasks {
			if t.Worker >= 0 {
				continue
			}
			w, f := ctx.bestWorkerFor(t)
			if w < 0 {
				continue
			}
			if s := f + boost; !found || s > bestScore {
				found, bestScore = true, s
				best = Placement{Stage: ps, Task: t, Worker: ctx.Workers[w]}
			}
		}
	}
	return best, found
}

// commit applies a placement of t on worker wi to D for good, keeping the
// headroom count and snapshot-refresh marks consistent.
func (ctx *PlaceContext) commit(t *dag.Task, wi int) {
	d := &ctx.d[wi]
	had := anyVec(d)
	applyInc(ctx, t, wi, d)
	if had && !anyVec(d) {
		ctx.headroom--
	}
	ctx.touched[wi] = true
}
