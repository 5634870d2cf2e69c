package mtqueue

// The task runner without a transport or a clock: each test settles the
// started monotasks by hand, so what starts when is exact.

import (
	"errors"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/resource"
)

// newRunner is a runner under l whose tasks carry their monotasks' one
// queue size.
func newRunner(l Limits) *Runner[float64] {
	return &Runner[float64]{
		Queues: Queues[Run[float64]]{Limits: l},
		Size:   func(t *Task[float64], _ int) float64 { return t.V },
	}
}

// task is a runner task of job under seq over mts.
func task(job int64, seq uint64, prio, size float64, mts ...*dag.Monotask) *Task[float64] {
	return &Task[float64]{Job: job, Seq: seq, Prio: prio, MTs: mts, V: size}
}

// cpuTasks is a one-stage job of parts tasks, one CPU monotask each.
func cpuTasks(parts int) []*dag.Task {
	g := dag.NewGraph()
	g.CreateOp(resource.CPU, "map").Read(g.CreateData(parts)).Create(g.CreateData(parts))
	return g.MustBuild().Stages[0].Tasks
}

// shuffleTasks is the reduce stage of a map → shuffle → reduce job: each
// task a network monotask and the CPU monotask that reads it.
func shuffleTasks(t *testing.T, parts int) []*dag.Task {
	g := dag.NewGraph()
	m := g.CreateOp(resource.CPU, "map").Read(g.CreateData(parts)).Create(g.CreateData(parts))
	sh := g.CreateOp(resource.Net, "shuffle").Read(m.Creates()[0]).Create(g.CreateData(parts))
	red := g.CreateOp(resource.CPU, "reduce").Read(sh.Creates()[0]).Create(g.CreateData(parts))
	m.To(sh, dag.Sync)
	sh.To(red, dag.Async)
	tasks := g.MustBuild().Stages[1].Tasks
	for _, task := range tasks {
		if mts := task.Monotasks; len(mts) != 2 || mts[0].Kind != resource.Net || mts[1].Ins[0] != mts[0] {
			t.Fatalf("reduce task %d is %v, want a network monotask and its CPU reader", task.ID, mts)
		}
	}
	return tasks
}

// tracker keeps what a runner started and not yet settled, and counts the
// tasks each step finished.
type tracker struct {
	t        *testing.T
	running  []Run[float64]
	finished map[*Task[float64]]int
}

func newTracker(t *testing.T) *tracker {
	return &tracker{t: t, finished: make(map[*Task[float64]]int)}
}

func (k *tracker) take(s Step[float64]) Step[float64] {
	k.running = append(k.running, s.Start...)
	for _, task := range s.Done {
		if k.finished[task]++; k.finished[task] > 1 {
			k.t.Fatalf("task %d finished twice", task.Seq)
		}
	}
	return s
}

// count returns how many of the running monotasks are of kind kind and how
// many of those hold a slot of its limit.
func (k *tracker) count(kind resource.Kind) (all, counted int) {
	for _, run := range k.running {
		if run.Monotask().Kind == kind {
			all++
			if run.counted {
				counted++
			}
		}
	}
	return all, counted
}

// settle settles the i-th running monotask as run, with err.
func (k *tracker) settle(r *Runner[float64], i int, err error) Step[float64] {
	run := k.running[i]
	k.running = append(k.running[:i], k.running[i+1:]...)
	return k.take(r.Settle(run, err))
}

// TestRunnerCPUBoundedByCores: six CPU monotasks on two cores run two at a
// time, a settled one's slot going to the next, and every task finishes once.
func TestRunnerCPUBoundedByCores(t *testing.T) {
	r, k := newRunner(Limits{Cores: 2, Net: 1}), newTracker(t)
	for i, dt := range cpuTasks(6) {
		k.take(r.Start(task(1, uint64(i), 0, 1, dt.Monotasks...)))
	}
	for settled := 0; settled < 6; settled++ {
		if want := min(2, 6-settled); len(k.running) != want {
			t.Fatalf("after %d settled, %d CPU monotasks run, want %d", settled, len(k.running), want)
		}
		k.settle(r, 0, nil)
	}
	if len(k.running) != 0 || len(k.finished) != 6 || r.Unfinished() != 0 {
		t.Fatalf("%d running, %d of 6 tasks finished, %d unfinished", len(k.running), len(k.finished), r.Unfinished())
	}
}

// TestRunnerNetLimitAndBypass: six shuffle tasks under a network limit of
// two move their inputs two at a time; a network monotask under the bypass
// threshold starts while the network queue is full, and holds no slot.
func TestRunnerNetLimitAndBypass(t *testing.T) {
	r, k := newRunner(Limits{Cores: 8, Net: 2, Small: 16}), newTracker(t)
	tasks := shuffleTasks(t, 7)
	for i, dt := range tasks[:6] {
		k.take(r.Start(task(1, uint64(i), 0, 100, dt.Monotasks...)))
	}
	if all, _ := k.count(resource.Net); all != 2 || len(k.running) != 2 {
		t.Fatalf("%d network monotasks of %d started, want 2 of 2", all, len(k.running))
	}
	small := k.take(r.Start(task(1, 6, 0, 15, tasks[6].Monotasks...)))
	if len(small.Start) != 1 || small.Start[0].counted {
		t.Fatalf("the small task started %+v, want its network monotask past the queue", small.Start)
	}
	// Settling the bypasser frees no slot: only its CPU reader starts.
	if s := k.settle(r, 2, nil); len(s.Start) != 1 || s.Start[0].Monotask().Kind != resource.CPU {
		t.Fatalf("settling the bypasser started %+v, want its CPU monotask alone", s.Start)
	}
	for len(k.running) > 0 {
		if all, counted := k.count(resource.Net); counted > 2 || all > 2 {
			t.Fatalf("%d network monotasks run (%d counted), limit 2", all, counted)
		}
		k.settle(r, 0, nil)
	}
	if len(k.finished) != 7 || r.Unfinished() != 0 {
		t.Fatalf("%d of 7 tasks finished, %d unfinished", len(k.finished), r.Unfinished())
	}
}

// TestRunnerHigherPriorityFirst: with the one core busy, a task of a
// higher-priority job queued behind a lower-priority one starts first.
func TestRunnerHigherPriorityFirst(t *testing.T) {
	r, k := newRunner(Limits{Cores: 1, Net: 1}), newTracker(t)
	dts := cpuTasks(3)
	k.take(r.Start(task(0, 1, 0, 1, dts[0].Monotasks...)))
	k.take(r.Start(task(1, 2, 1, 1, dts[1].Monotasks...)))
	k.take(r.Start(task(2, 3, 5, 1, dts[2].Monotasks...)))
	for _, want := range []int64{0, 2, 1} {
		if len(k.running) != 1 || k.running[0].Task.Job != want {
			t.Fatalf("running %+v, want job %d's monotask alone", k.running, want)
		}
		k.settle(r, 0, nil)
	}
}

// TestRunnerProducersSettleFirst: a task's CPU monotask waits for the network
// monotask of its task it reads, with cores to spare, and enters its queue
// only once that one settles; the task finishes with it.
func TestRunnerProducersSettleFirst(t *testing.T) {
	r, k := newRunner(Limits{Cores: 4, Net: 4}), newTracker(t)
	mts := shuffleTasks(t, 1)[0].Monotasks
	tk := task(1, 1, 0, 100, mts...)
	k.take(r.Start(tk))
	if len(k.running) != 1 || k.running[0].Monotask() != mts[0] {
		t.Fatalf("started %+v, want the network monotask alone", k.running)
	}
	if s := k.settle(r, 0, nil); len(s.Start) != 1 || s.Start[0].Monotask() != mts[1] || len(s.Done) != 0 {
		t.Fatalf("settling the producer left %+v, want its reader started and the task running", s)
	}
	if s := k.settle(r, 0, nil); len(s.Done) != 1 || s.Done[0] != tk || !tk.Ran(0) || !tk.Ran(1) {
		t.Fatalf("settling the reader left %+v, want the task finished with both run", s)
	}
}

// TestRunnerStoppedTaskSettlesUnrun: once a task fails or is aborted, its
// monotasks still queued and those its producers then free settle unrun,
// none starts, and the task finishes once: in Step.Done with its error after
// a failure, out of it after an abort.
func TestRunnerStoppedTaskSettlesUnrun(t *testing.T) {
	boom := errors.New("boom")
	for _, abort := range []bool{false, true} {
		r, k := newRunner(Limits{Cores: 1, Net: 1}), newTracker(t)
		// A task of two independent CPU monotasks on one core, one queued,
		// and a shuffle task whose CPU reader waits on its network monotask.
		cpus := cpuTasks(2)
		pair := task(1, 1, 0, 1, cpus[0].Monotasks[0], cpus[1].Monotasks[0])
		shuffle := task(1, 2, 0, 1, shuffleTasks(t, 1)[0].Monotasks...)
		k.take(r.Start(pair))
		k.take(r.Start(shuffle))
		if len(k.running) != 2 {
			t.Fatalf("%d monotasks started, want one of each task", len(k.running))
		}
		var err error
		if abort {
			r.Abort(1, 1)
			r.Abort(1, 2)
			r.Abort(2, 1) // another job's seq: no task of it
		} else {
			err = boom
		}
		for len(k.running) > 0 {
			if s := k.settle(r, 0, err); len(s.Start) != 0 {
				t.Fatalf("abort=%v: a stopped task started %+v", abort, s.Start)
			}
		}
		for _, tk := range []*Task[float64]{pair, shuffle} {
			if !tk.Ran(0) || tk.Ran(1) {
				t.Errorf("abort=%v: task %d ran %v, %v; want its first monotask alone", abort, tk.Seq, tk.Ran(0), tk.Ran(1))
			}
			if want := map[bool]int{false: 1, true: 0}[abort]; k.finished[tk] != want {
				t.Errorf("abort=%v: task %d in Done %d times, want %d", abort, tk.Seq, k.finished[tk], want)
			}
			if !abort && tk.Err() != boom {
				t.Errorf("task %d finished with %v, want its failure", tk.Seq, tk.Err())
			}
		}
		if r.Unfinished() != 0 || r.Queues.Len(resource.CPU) != 0 {
			t.Errorf("abort=%v: %d tasks unfinished", abort, r.Unfinished())
		}
	}
}
