package live

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/localrt"
	"ursa/internal/mtqueue"
)

// executor is the in-process core.TaskExecutor: each logical worker runs its
// placed tasks through an mtqueue.Runner, the worker agent's, on the control
// loop, within CoresPerWorker CPU monotasks at once. A started monotask runs
// its real execution steps (localrt.Runtime.Exec) on a goroutine of its
// own, and its measured wall-clock duration crosses the driver inbox back to
// the loop: the workers' rate monitors blend *measured* rates into APT_r(w),
// the §4.2.2 feedback loop over real numbers.
type executor struct {
	sys     *System
	runners []*mtqueue.Runner[task] // by worker ID
	seq     uint64
	wg      sync.WaitGroup
	rts     sync.Map // *dag.Plan → *localrt.Runtime: a plan names its job
}

// task is the executor's part of a task in a runner.
type task struct {
	w       *core.Worker
	rt      *localrt.Runtime
	done    func(mt *dag.Monotask, bytes, seconds float64)
	release []func() // frees the core a started CPU monotask holds, by index
}

func newExecutor(sys *System) *executor {
	e := &executor{sys: sys}
	cfg := sys.Core.Cfg
	for _, w := range sys.Core.Workers {
		e.runners = append(e.runners, &mtqueue.Runner[task]{
			Queues: mtqueue.Queues[mtqueue.Run[task]]{Limits: mtqueue.Limits{
				Cores: int(w.Machine.Cores.Capacity()), Net: cfg.NetConcurrency,
				Small: cfg.SmallMonotaskBytes, FIFO: cfg.DisableMonotaskOrdering,
			}},
			Size: func(t *mtqueue.Task[task], i int) float64 { return t.MTs[i].InputBytes },
		})
	}
	return e
}

// RegisterJob binds a job's plan to the runtime holding its datasets.
func (e *executor) RegisterJob(rt *localrt.Runtime) { e.rts.Store(rt.Plan(), rt) }

// Close waits for the monotasks still executing; their completions reach a
// stopped driver and are dropped.
func (e *executor) Close() { e.wg.Wait() }

// StartTask implements core.TaskExecutor: the task enters its worker's
// runner under a fresh seq, less the monotasks a failed worker finished
// (their outputs stay, §4.3). The abort hook stops the task and frees its
// cores at once; its running monotasks' completions are dropped.
func (e *executor) StartTask(w *core.Worker, j *core.Job, t *dag.Task, prio float64, done func(mt *dag.Monotask, bytes, seconds float64)) (abort func()) {
	rt, ok := e.rts.Load(j.Plan)
	if !ok {
		panic(fmt.Sprintf("live: job %d has no registered runtime", j.ID)) // a wiring bug
	}
	mts := t.Monotasks
	if finished := func(mt *dag.Monotask) bool { return mt.State == dag.MTDone }; slices.ContainsFunc(mts, finished) {
		mts = slices.DeleteFunc(slices.Clone(mts), finished)
	}
	r := e.runners[w.ID]
	e.seq++
	tk := &mtqueue.Task[task]{Job: int64(j.ID), Seq: e.seq, Prio: prio, MTs: mts,
		V: task{w: w, rt: rt.(*localrt.Runtime), done: done, release: make([]func(), len(mts))}}
	e.launch(r, r.Start(tk))
	return func() {
		r.Abort(tk.Job, tk.Seq)
		for _, release := range tk.V.release {
			if release != nil {
				release()
			}
		}
	}
}

// launch starts what a runner step left: a CPU monotask holds a core of its
// worker from here to its completion, and each runs on a goroutine.
func (e *executor) launch(r *mtqueue.Runner[task], s mtqueue.Step[task]) {
	for _, run := range s.Start {
		tk, mt := run.Task, run.Monotask()
		tk.V.release[run.I] = core.HoldCore(tk.V.w, mt)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			start := time.Now()
			err := tk.V.rt.Exec(mt)
			// Floored at the clock granularity so a trivial monotask cannot
			// inject a near-infinite rate sample.
			elapsed := max(time.Since(start).Seconds(), 1e-6)
			e.sys.Drv.Send(func() { e.finish(r, run, err, elapsed) })
		}()
	}
}

// finish takes a started monotask's completion on the loop: done first, so
// the job manager prepares the consumers it frees, then the runner settles
// it and starts what that frees. An aborted task's completion is dropped; a
// failed monotask fails the run.
func (e *executor) finish(r *mtqueue.Runner[task], run mtqueue.Run[task], err error, seconds float64) {
	tk, mt := run.Task, run.Monotask()
	tk.V.release[run.I]()
	switch {
	case tk.Aborted():
	case err != nil:
		e.sys.Fail(fmt.Errorf("live: %v failed: %w", mt, err))
		return
	default:
		tk.V.done(mt, mt.InputBytes, seconds)
	}
	e.launch(r, r.Settle(run, err))
}
