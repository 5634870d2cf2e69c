package core

import (
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// JobManager coordinates one job's execution flow (§4.1.3): it maintains the
// monotask DAG, estimates per-task resource usage for the scheduler
// (§4.2.1), dispatches ready monotasks to the workers their task was placed
// on, and resolves dependencies as monotasks complete.
type JobManager struct {
	sys *System
	job *Job

	// TaskPlacedAt and TaskDoneAt record task lifetimes for the straggler
	// and stage statistics of §5.
	TaskPlacedAt map[*dag.Task]eventloop.Time
	TaskDoneAt   map[*dag.Task]eventloop.Time
}

func newJobManager(sys *System, job *Job) *JobManager {
	return &JobManager{
		sys:          sys,
		job:          job,
		TaskPlacedAt: make(map[*dag.Task]eventloop.Time),
		TaskDoneAt:   make(map[*dag.Task]eventloop.Time),
	}
}

// onAdmit reports the job's initial ready tasks to the scheduler.
func (jm *JobManager) onAdmit() {
	jm.reportReady(jm.job.Plan.InitialReady())
}

// reportReady estimates resource usage for newly ready tasks (§4.2.1) and
// hands them to the scheduler for placement. The memory request per task is
// min(r·M(j), m2i·I(t)) where r is the task's share of the batch input.
func (jm *JobManager) reportReady(tasks []*dag.Task) {
	if len(tasks) == 0 {
		return
	}
	m2i := jm.job.m2i(jm.sys.Cfg.DefaultM2I)
	var batchInput float64
	for _, t := range tasks {
		jm.job.Plan.Estimate(t, m2i)
		batchInput += t.InputBytes
	}
	// A task can never use more memory than one machine holds.
	memCap := jm.sys.maxWorkerMem() * 0.9
	for _, t := range tasks {
		est := t.EstUsage[resource.Mem] // m2i(t)·I(t) from the plan
		if jm.job.Spec.MemEstimate > 0 && batchInput > 0 {
			r := t.InputBytes / batchInput
			if rm := r * jm.job.Spec.MemEstimate; rm < est {
				est = rm
			}
		}
		if est > memCap {
			est = memCap
		}
		t.EstUsage[resource.Mem] = est
	}
	jm.sys.Sched.addReadyTasks(jm.job, tasks)
}

// taskPlaced reacts to the scheduler assigning a task to a worker: reserve
// its memory and send its ready monotasks to the worker's queues.
func (jm *JobManager) taskPlaced(t *dag.Task, w *Worker) {
	t.Worker = w.ID
	jm.TaskPlacedAt[t] = jm.sys.Loop.Now()
	w.reserveTask(jm.job, t)
	for _, mt := range t.ReadyMonotasks() {
		jm.job.Plan.Prepare(mt)
		w.Enqueue(jm.job, mt)
	}
}

// monotaskDone handles a completion report from a worker (JP → JM): update
// the metadata store and SRJF remaining work, forward newly ready monotasks
// of the same task to the same worker, and report newly ready tasks to the
// scheduler.
func (jm *JobManager) monotaskDone(w *Worker, mt *dag.Monotask) {
	j := jm.job
	j.remaining[mt.Kind] -= mt.EstInput
	if j.remaining[mt.Kind] < 0 {
		j.remaining[mt.Kind] = 0
	}
	res := j.Plan.Complete(mt)
	for _, next := range res.NewReadyMonotasks {
		j.Plan.Prepare(next)
		w.Enqueue(j, next)
	}
	if res.TaskDone {
		jm.TaskDoneAt[mt.Task] = jm.sys.Loop.Now()
		w.releaseTask(mt.Task)
		jm.sys.Sched.taskFinished(j, mt.Task, w)
	}
	jm.reportReady(res.NewReadyTasks)
	if res.TaskDone && j.Plan.AllDone() {
		jm.sys.Sched.jobFinished(j)
	}
}
