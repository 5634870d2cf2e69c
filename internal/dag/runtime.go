package dag

import (
	"fmt"

	"ursa/internal/resource"
)

// sizeFn resolves the size of one partition of a dataset. The actual
// resolver reads recorded metadata; the estimation resolver overlays
// predicted sizes for not-yet-produced datasets.
type sizeFn func(d *Dataset, idx int) float64

func actualSize(d *Dataset, idx int) float64 {
	s := d.PartSizes[idx]
	if s < 0 {
		panic(fmt.Sprintf("dag: partition %d of dataset %d not yet produced", idx, d.ID))
	}
	return s
}

// readBytes computes the bytes monotask index (out of P) reads from d under
// partition mapping, handling unequal partition counts proportionally.
func readBytes(d *Dataset, p, idx int, size sizeFn) float64 {
	dp := d.Partitions
	switch {
	case dp == p:
		return size(d, idx)
	case dp > p:
		lo, hi := rangeOf(dp, p, idx)
		var sum float64
		for i := lo; i < hi; i++ {
			sum += size(d, i)
		}
		return sum
	default: // dp < p: several monotasks split one partition evenly
		return size(d, idx*dp/p) * float64(dp) / float64(p)
	}
}

// totalBytes sums all partitions of d.
func totalBytes(d *Dataset, size sizeFn) float64 {
	var t float64
	for i := 0; i < d.Partitions; i++ {
		t += size(d, i)
	}
	return t
}

func (l *lop) shard(idx int) float64 {
	if l.shards != nil {
		return l.shards[idx]
	}
	return 1 / float64(l.parallelism)
}

// extMapping determines how a member's external read is consumed, based on
// the logical edge from the dataset's creator (§4.1.1 semantics).
func (l *lop) extMapping(d *Dataset) MapKind {
	if l.broadcast {
		return MapBroadcast
	}
	if d.Creator == nil {
		return MapPartition
	}
	for _, e := range l.in {
		if e.kind != Sync {
			continue
		}
		for _, m := range e.from.members {
			for _, cd := range m.creates {
				if cd == d {
					return MapShard
				}
			}
		}
	}
	return MapPartition
}

// output records one partition-size write performed when a monotask
// completes.
type output struct {
	d    *Dataset
	idx  int
	size float64
}

// eval computes a monotask's input bytes, CPU work, and the dataset
// partition sizes it will record on completion.
func (l *lop) eval(idx int, size sizeFn) (input, work float64, outs []output) {
	p := l.parallelism
	memOut := make([]float64, len(l.members))
	for mi, m := range l.members {
		var ext, internal float64
		for _, d := range m.extReads {
			switch l.extMapping(d) {
			case MapBroadcast:
				ext += totalBytes(d, size)
			case MapShard:
				ext += totalBytes(d, size) * l.shard(idx)
			default:
				ext += readBytes(d, p, idx, size)
			}
		}
		for _, pi := range m.intReads {
			internal += memOut[pi]
		}
		in := ext + internal
		input += ext // bytes entering the monotask from outside the chain
		if l.kind == resource.CPU {
			work += m.intensity * in
		}
		out := in * m.ratio
		if m.fixedOut > 0 {
			out = m.fixedOut
		}
		memOut[mi] = out
		for _, d := range m.creates {
			outs = append(outs, writeOutputs(d, p, idx, out)...)
		}
	}
	if l.kind != resource.CPU {
		work = input
	}
	return input, work, outs
}

// writeOutputs spreads a monotask's output across the created dataset's
// partitions when parallelism and partition counts differ.
func writeOutputs(d *Dataset, p, idx int, out float64) []output {
	dp := d.Partitions
	switch {
	case dp == p:
		return []output{{d, idx, out}}
	case dp > p:
		lo, hi := rangeOf(dp, p, idx)
		per := out / float64(hi-lo)
		var res []output
		for i := lo; i < hi; i++ {
			res = append(res, output{d, i, per})
		}
		return res
	default:
		return []output{{d, idx * dp / p, out}} // accumulated by ApplyOutputs
	}
}

// Prepare computes InputBytes and CPUWork for a ready monotask and stashes
// the dataset writes to apply on completion. It panics if dependencies are
// unsatisfied — that would be a scheduler bug.
func (p *Plan) Prepare(mt *Monotask) {
	if mt.pendingIns != 0 {
		panic(fmt.Sprintf("dag: Prepare(%v) with %d pending deps", mt, mt.pendingIns))
	}
	in, work, outs := mt.lop.eval(mt.Index, actualSize)
	mt.InputBytes = in
	mt.CPUWork = work
	mt.outs = outs
	mt.State = MTReady
}

// CompletionResult describes the consequences of one monotask finishing.
type CompletionResult struct {
	// NewReadyMonotasks are monotasks in the same task that became ready;
	// the JM sends them to the task's worker (§4.1.3).
	NewReadyMonotasks []*Monotask
	// TaskDone reports whether the whole task completed.
	TaskDone bool
	// NewReadyTasks are tasks whose dependencies are now fully satisfied;
	// the JM reports their estimated usage to the scheduler for placement.
	NewReadyTasks []*Task
}

// Complete marks mt done, records its outputs (computed by Prepare) in the
// metadata store, and resolves dependencies, firing any barrier whose
// producers have all finished.
func (p *Plan) Complete(mt *Monotask) CompletionResult {
	if mt.State == MTDone {
		panic(fmt.Sprintf("dag: %v completed twice", mt))
	}
	if mt.State == MTPending {
		panic(fmt.Sprintf("dag: %v completed without Prepare", mt))
	}
	mt.State = MTDone
	mt.Task.doneCount++
	for _, o := range mt.outs {
		if o.d.PartSizes[o.idx] < 0 {
			o.d.PartSizes[o.idx] = 0
		}
		o.d.PartSizes[o.idx] += o.size
	}
	var res CompletionResult
	p.propagate(mt, &res)
	if mt.Task.Done() {
		res.TaskDone = true
		p.tasksDone++
	}
	return res
}

// propagate resolves the out-edges of a finished (possibly virtual)
// monotask. Same-task consumers whose dependencies clear become ready to
// run; cross-task edges (direct async edges and barrier hops) count down
// the consumer task's readiness.
func (p *Plan) propagate(mt *Monotask, res *CompletionResult) {
	for _, next := range mt.Outs {
		next.pendingIns--
		if next.virtual {
			if next.pendingIns == 0 {
				next.State = MTDone
				p.propagate(next, res)
			}
			continue
		}
		if mt.virtual || next.Task != mt.Task {
			next.Task.pendingParents--
			if next.Task.pendingParents == 0 {
				res.NewReadyTasks = append(res.NewReadyTasks, next.Task)
			}
			continue
		}
		if next.pendingIns == 0 {
			res.NewReadyMonotasks = append(res.NewReadyMonotasks, next)
		}
	}
}

// ResetForRetry returns an incomplete task to a placeable state after a
// worker failure (§4.3): monotasks that were ready or running revert to
// pending (their dependency counts are already satisfied), completed
// monotasks keep their checkpointed outputs, and the worker assignment is
// cleared. It reports the number of monotasks that will re-execute.
func (p *Plan) ResetForRetry(t *Task) int {
	if t.Done() {
		panic(fmt.Sprintf("dag: ResetForRetry on completed task %d", t.ID))
	}
	n := 0
	for _, mt := range t.Monotasks {
		if mt.State == MTReady || mt.State == MTRunning {
			mt.State = MTPending
			n++
		}
	}
	t.Worker = -1
	t.SchedIdx = -1
	return n
}

// InitialReady returns the tasks with no cross-task dependencies, i.e. the
// initial ready list of the JM.
func (p *Plan) InitialReady() []*Task {
	var out []*Task
	for _, t := range p.Tasks {
		if t.pendingParents == 0 {
			out = append(out, t)
		}
	}
	return out
}

// ReadyMonotasks returns the currently runnable monotasks of a ready task:
// those whose dependencies are all satisfied.
func (t *Task) ReadyMonotasks() []*Monotask {
	var out []*Monotask
	for _, mt := range t.Monotasks {
		if mt.State == MTPending && mt.pendingIns == 0 {
			out = append(out, mt)
		}
	}
	return out
}

// AllDone reports whether every task of the plan completed. The JM asks after
// every finished task, so it compares a count Complete keeps instead of
// walking the tasks. The count never has to go down: ResetForRetry panics on a
// completed task.
func (p *Plan) AllDone() bool { return p.tasksDone == len(p.Tasks) }

// estScratch holds the partition sizes one Estimate call predicts for the
// datasets its task's monotasks create: the handful of partitions that task
// writes, not a row per dataset. Predictions for consecutive partitions of a
// dataset form one run whose values are consecutive in vals, so a monotask
// that writes or reads a range of partitions (dataset partitions > op
// parallelism) costs one run, and a lookup walks runs, not partitions. The
// Plan owns one and reuses it: a plan belongs to one job on one control loop.
type estScratch struct {
	runs []estRun
	vals []float64
}

// estRun predicts partitions [lo, lo+n) of d in vals[off : off+n].
type estRun struct {
	d          *Dataset
	lo, n, off int
}

// at returns the slot predicting partition idx of d, or nil.
func (s *estScratch) at(d *Dataset, idx int) *float64 {
	for i := range s.runs {
		if r := &s.runs[i]; r.d == d && idx >= r.lo && idx < r.lo+r.n {
			return &s.vals[r.off+idx-r.lo]
		}
	}
	return nil
}

// add accumulates size into the prediction for partition idx of d. A new
// partition extends the last run when it continues it (the last run's values
// are the tail of vals) and starts a run otherwise.
func (s *estScratch) add(d *Dataset, idx int, size float64) {
	if v := s.at(d, idx); v != nil {
		*v += size
		return
	}
	if n := len(s.runs); n > 0 && s.runs[n-1].d == d && s.runs[n-1].lo+s.runs[n-1].n == idx {
		s.runs[n-1].n++
	} else {
		s.runs = append(s.runs, estRun{d: d, lo: idx, n: 1, off: len(s.vals)})
	}
	s.vals = append(s.vals, size)
}

// size is Estimate's sizeFn: the recorded size of a produced partition, else
// this task's prediction for it, else 0 (unknown and not predicted:
// contributes nothing).
func (s *estScratch) size(d *Dataset, idx int) float64 {
	if actual := d.PartSizes[idx]; actual >= 0 {
		return actual
	}
	if v := s.at(d, idx); v != nil {
		return *v
	}
	return 0
}

// Estimate fills t.EstUsage, t.InputBytes and t.M2I with the JM's usage
// estimates (§4.2.1): per-resource usage is the summed input size of the
// task's monotasks of that kind, with not-yet-produced intermediate sizes
// predicted by propagating output ratios; I(t) is the input entering the
// task from outside.
func (p *Plan) Estimate(t *Task, defaultM2I float64) {
	est := &p.est
	est.runs, est.vals = est.runs[:0], est.vals[:0]
	size := est.size
	var usage resource.Vector
	var taskInput float64
	m2i := defaultM2I
	// t.order lists the task's monotasks in dependency order (Ins before Outs).
	for _, mt := range t.order {
		if mt.State == MTDone {
			// Retried task (§4.3): completed monotasks keep their
			// checkpointed outputs and will not run again, so they add no
			// load to the worker the task is re-placed on.
			mt.EstInput = 0
			continue
		}
		in, _, outs := mt.lop.eval(mt.Index, size)
		usage[mt.Kind] += in
		mt.EstInput = in
		if isTaskSource(mt) {
			taskInput += in
		}
		for _, o := range outs {
			if o.d.PartSizes[o.idx] < 0 {
				est.add(o.d, o.idx, o.size)
			}
		}
		if mt.lop.m2i > m2i {
			m2i = mt.lop.m2i
		}
	}
	// Memory usage is estimated per task as m2i × I(t); the job-level
	// min(r·M(j), ·) clamp is applied by the JM, which knows M(j).
	usage[resource.Mem] = m2i * taskInput
	t.EstUsage = usage
	t.InputBytes = taskInput
	t.M2I = m2i
}

// isTaskSource reports whether mt receives no input from within its task.
func isTaskSource(mt *Monotask) bool {
	for _, in := range mt.Ins {
		if in.Task == mt.Task {
			return false
		}
	}
	return true
}
