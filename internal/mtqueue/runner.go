package mtqueue

import (
	"slices"

	"ursa/internal/dag"
	"ursa/internal/resource"
)

// Runner runs placed tasks through one worker's Queues (§4.2.3): a monotask
// enters its queue once the monotasks of its task it reads have settled, and
// a task finishes with its last monotask. It holds no lock and does no I/O:
// the owner serializes every call, runs each monotask a call returns to
// start and reports its end with Settle. T is the owner's data of a task.
type Runner[T any] struct {
	Queues[Run[T]]
	// Size is a task's i-th monotask's queue size key, read as it enters.
	Size  func(t *Task[T], i int) float64
	tasks map[uint64]*Task[T] // the unfinished ones by seq, Abort's match
}

// Task is one placed task on a Runner: every monotask of its dag task, the
// priority its job had when it was placed (its monotasks' queue order) and
// the seq its owner names it by.
type Task[T any] struct {
	Job  int64
	Seq  uint64
	Prio float64
	MTs  []*dag.Monotask
	V    T

	mts     []mtState
	left    int // monotasks not yet settled
	err     error
	aborted bool
}

type mtState struct {
	waits int32 // in-task producers not yet settled
	ran   bool
}

// Run is a started monotask: the I-th of its task.
type Run[T any] struct {
	Task    *Task[T]
	I       int
	counted bool // holds a slot of its kind's limit; a bypassing one does not
}

// Step is what a Runner call leaves its owner: the monotasks to start, and
// the tasks that finished, in order; an aborted task never appears in Done.
type Step[T any] struct {
	Start []Run[T]
	Done  []*Task[T]
}

// Monotask returns the monotask r runs.
func (r Run[T]) Monotask() *dag.Monotask { return r.Task.MTs[r.I] }

// Err is the task's first failure Settle reported.
func (t *Task[T]) Err() error { return t.err }

// Aborted reports whether Abort or AbortAll reached the task.
func (t *Task[T]) Aborted() bool { return t.aborted }

// stopped reports whether the task failed or was aborted: its monotasks
// still to start are passed over.
func (t *Task[T]) stopped() bool { return t.err != nil || t.aborted }

// Ran reports whether the task's i-th monotask ran, not passed over.
func (t *Task[T]) Ran(i int) bool { return t.mts[i].ran }

// Start takes a placed task: its monotasks that read none of its others
// enter their queues, and those the limits allow start.
func (r *Runner[T]) Start(t *Task[T]) Step[T] {
	if r.tasks == nil {
		r.tasks = make(map[uint64]*Task[T])
	}
	r.tasks[t.Seq] = t
	t.mts = make([]mtState, len(t.MTs))
	t.left = len(t.MTs)
	for i, mt := range t.MTs {
		for _, in := range mt.Ins {
			if in.Task == mt.Task && slices.Contains(t.MTs, in) {
				t.mts[i].waits++
			}
		}
	}
	var s Step[T]
	if t.left == 0 {
		r.finish(t, &s)
	}
	// A fresh task is not stopped: readying a monotask settles none.
	for i := range t.mts {
		if t.mts[i].waits == 0 {
			r.ready(t, i, &s)
		}
	}
	r.pump(&s)
	return s
}

// Settle reports that a started monotask ran; a non-nil err fails its task.
// Its slot is freed, the in-task consumers it was the last producer of
// enter their queues, and what the limits allow starts.
func (r *Runner[T]) Settle(run Run[T], err error) Step[T] {
	t := run.Task
	if run.counted {
		r.Done(run.Monotask().Kind)
	}
	t.mts[run.I].ran = true
	if t.err == nil {
		t.err = err
	}
	var s Step[T]
	r.settle(t, run.I, &s)
	r.pump(&s)
	return s
}

// Abort aborts job's unfinished task seq, if any: none of its monotasks
// starts from now on, and it finishes out of Step.Done.
func (r *Runner[T]) Abort(job int64, seq uint64) {
	if t := r.tasks[seq]; t != nil && t.Job == job {
		t.aborted = true
	}
}

// AbortAll aborts every unfinished task and forgets it, so a later task may
// reuse its seq.
func (r *Runner[T]) AbortAll() {
	for _, t := range r.tasks {
		t.aborted = true
	}
	clear(r.tasks)
}

// Unfinished returns the number of unfinished tasks AbortAll left.
func (r *Runner[T]) Unfinished() int { return len(r.tasks) }

// ready queues a monotask whose in-task producers have all settled, or
// settles it unrun when its task stopped.
func (r *Runner[T]) ready(t *Task[T], i int, s *Step[T]) {
	if t.stopped() {
		r.settle(t, i, s)
		return
	}
	mt := t.MTs[i]
	run := Run[T]{Task: t, I: i, counted: true}
	if r.Add(mt.Kind, t.Prio, t.Job, mt.Task.Stage.ID, r.Size(t, i), run) {
		run.counted = false
		s.Start = append(s.Start, run)
	}
}

// settle readies the in-task consumers the task's i-th monotask was the
// last producer of, and finishes the task with its last monotask.
func (r *Runner[T]) settle(t *Task[T], i int, s *Step[T]) {
	mt := t.MTs[i]
	for j, c := range t.MTs {
		for _, in := range c.Ins {
			if in == mt && c.Task == mt.Task && t.mts[j].waits > 0 {
				if t.mts[j].waits--; t.mts[j].waits == 0 {
					r.ready(t, j, s)
				}
			}
		}
	}
	if t.left--; t.left == 0 {
		r.finish(t, s)
	}
}

func (r *Runner[T]) finish(t *Task[T], s *Step[T]) {
	if r.tasks[t.Seq] == t {
		delete(r.tasks, t.Seq)
	}
	if !t.aborted {
		s.Done = append(s.Done, t)
	}
}

// pump starts queued monotasks while their kinds' limits allow; one whose
// task stopped while it waited settles unrun instead.
func (r *Runner[T]) pump(s *Step[T]) {
	for _, k := range [...]resource.Kind{resource.CPU, resource.Net, resource.Disk} {
		for run, ok := r.Next(k); ok; run, ok = r.Next(k) {
			if run.Task.stopped() {
				r.Done(k)
				r.settle(run.Task, run.I, s)
			} else {
				s.Start = append(s.Start, run)
			}
		}
	}
}
