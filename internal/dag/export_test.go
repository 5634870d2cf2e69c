package dag

import "ursa/internal/resource"

// EstimateReference is the implementation Plan.Estimate replaced: a fresh map
// holding one Partitions-long row per dataset the task predicts, and a fresh
// topological sort, per call. It is kept, for tests only, as the reference
// TestEstimateMatchesReference holds Estimate to bit for bit; the test lives
// in package dag_test because the plans it compares on come from
// internal/workload, which imports this package.
func EstimateReference(p *Plan, t *Task, defaultM2I float64) {
	est := make(map[*Dataset][]float64)
	size := func(d *Dataset, idx int) float64 {
		if s := d.PartSizes[idx]; s >= 0 {
			return s
		}
		if row, ok := est[d]; ok && row[idx] >= 0 {
			return row[idx]
		}
		return 0 // unknown and not predicted: contributes nothing
	}
	// Process the task's monotasks in dependency order (Ins before Outs).
	order := topoMonotasks(t.Monotasks)
	var usage resource.Vector
	var taskInput float64
	m2i := defaultM2I
	for _, mt := range order {
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
			if o.d.PartSizes[o.idx] >= 0 {
				continue
			}
			row, ok := est[o.d]
			if !ok {
				row = make([]float64, o.d.Partitions)
				for i := range row {
					row[i] = -1
				}
				est[o.d] = row
			}
			if row[o.idx] < 0 {
				row[o.idx] = 0
			}
			row[o.idx] += o.size
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

// topoMonotasks orders a task's monotasks so producers precede consumers.
func topoMonotasks(mts []*Monotask) []*Monotask {
	inTask := make(map[*Monotask]bool, len(mts))
	for _, mt := range mts {
		inTask[mt] = true
	}
	indeg := make(map[*Monotask]int, len(mts))
	for _, mt := range mts {
		for _, in := range mt.Ins {
			if inTask[in] {
				indeg[mt]++
			}
		}
	}
	var queue, out []*Monotask
	for _, mt := range mts {
		if indeg[mt] == 0 {
			queue = append(queue, mt)
		}
	}
	for len(queue) > 0 {
		mt := queue[0]
		queue = queue[1:]
		out = append(out, mt)
		for _, next := range mt.Outs {
			if !inTask[next] {
				continue
			}
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	return out
}

// RandomGraph (the property tests' generator: reads at unequal parallelism in
// all three directions) and RunSteps (their plan driver) for package dag_test.
var (
	RandomGraph = randomGraph
	RunSteps    = runSteps
)
