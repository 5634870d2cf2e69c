package agent

// The agent's own monotask queues (§4.2.3): the CPU queue runs at most Cores
// monotasks at once and the network queue at most the master's limit, a
// small network monotask skips its queue, and a higher-priority job's
// monotask starts first.

import (
	"testing"
	"time"

	"ursa/internal/dag"
	"ursa/internal/localrt"
	"ursa/internal/remote/workload"
	"ursa/internal/resource"
	"ursa/internal/wire"
)

// queueDelay stretches every monotask in these tests, so how many run at
// once shows in how long a wave takes: a sleep never ends early, so a lower
// bound on a wave's time cannot fail by chance.
const queueDelay = 30 * time.Millisecond

// hold takes n slots of kind k in the agent's queues, as monotasks running
// elsewhere would; release returns them and starts what they held up.
func hold(a *Agent, k resource.Kind, n int) (release func()) {
	a.mu.Lock()
	for i := 0; i < n; i++ {
		a.queues.Add(k, 0, -1, 0, 1<<62, nil)
		if _, ok := a.queues.Next(k); !ok {
			panic("no free slot to hold")
		}
	}
	a.mu.Unlock()
	return func() {
		var w work
		a.mu.Lock()
		for i := 0; i < n; i++ {
			a.queues.Done(k)
		}
		a.pumpLocked(&w)
		a.mu.Unlock()
		a.launch(w)
	}
}

// microJob joins an agent under welcome, prepares micro with p as job 1 and
// returns the master's end of the connection and the job's plan, prepared
// on this side as a master would.
func microJob(t *testing.T, cfg Config, welcome wire.Welcome, p workload.MicroParams) (*Agent, *wire.Conn, *dag.Plan) {
	t.Helper()
	fm := newFakeMaster(func(int) bool { return true })
	cfg.MasterAddrs, cfg.Dial = []string{"master"}, fm.dial
	joining := dialAsync(t, cfg)
	_, c := fm.welcomeWith(t, welcome)
	a := <-joining
	if a == nil {
		t.FailNow()
	}
	t.Cleanup(a.Kill)
	name, params := workload.Micro(p)
	bj, err := workload.Build(name, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range bj.Inputs {
		localrt.SplitInput(in.Dataset, in.Rows) // the input sizes Prepare reads
	}
	c.Send(wire.Prepare{JobID: 1, Workload: name, Params: params})
	return a, c, bj.Plan
}

// wave sends tasks and waits for all their TaskDone frames, completing their
// records in plan; it returns the tasks that became ready and the time the
// wave took.
func wave(t *testing.T, c *wire.Conn, plan *dag.Plan, tasks []wire.Task) (next []*dag.Task, took time.Duration) {
	t.Helper()
	start := time.Now()
	for _, f := range tasks {
		c.Send(f)
	}
	for range tasks {
		td, ok := read(t, c).(wire.TaskDone)
		if !ok {
			t.Fatalf("got %+v, want a TaskDone", td)
		}
		for _, m := range td.Records {
			if m.Err != "" {
				t.Fatalf("record %+v failed", m)
			}
			mt := plan.Monotasks[m.MTID]
			plan.Prepare(mt)
			next = append(next, plan.Complete(mt).NewReadyTasks...)
		}
	}
	return next, time.Since(start)
}

func frames(tasks []*dag.Task, size float64) []wire.Task {
	var out []wire.Task
	for _, task := range tasks {
		f := taskFrame(1, task)
		for i := range f.MTs {
			f.MTs[i].EstInput = size
		}
		out = append(out, f)
	}
	return out
}

// TestCPUConcurrencyBoundedByCores: six CPU monotasks on two cores run in
// three rounds, never six at once.
func TestCPUConcurrencyBoundedByCores(t *testing.T) {
	_, c, plan := microJob(t, Config{Cores: 2, ExecDelay: queueDelay}, wire.Welcome{},
		workload.MicroParams{InParts: 6, OutParts: 1})
	roots := plan.InitialReady()
	if len(roots) != 6 {
		t.Fatalf("micro has %d root tasks, want 6", len(roots))
	}
	if _, took := wave(t, c, plan, frames(roots, 1)); took < 3*queueDelay {
		t.Errorf("six CPU monotasks on two cores took %v, under three rounds of %v", took, queueDelay)
	}
}

// TestNetworkConcurrencyAndBypass: six shuffle tasks under a network limit
// of two move their inputs two at a time, and a network monotask below the
// bypass threshold starts while the network queue is full.
func TestNetworkConcurrencyAndBypass(t *testing.T) {
	a, c, plan := microJob(t, Config{Cores: 8, ExecDelay: queueDelay},
		wire.Welcome{NetConcurrency: 2, SmallMonotaskBytes: 16},
		workload.MicroParams{InParts: 2, OutParts: 8})
	shuffles, _ := wave(t, c, plan, frames(plan.InitialReady(), 100))
	if len(shuffles) != 8 {
		t.Fatalf("micro has %d shuffle tasks, want 8", len(shuffles))
	}
	for _, task := range shuffles {
		if task.Monotasks[0].Kind != resource.Net {
			t.Fatalf("shuffle task %d starts with a %v monotask", task.ID, task.Monotasks[0].Kind)
		}
	}
	// Each task is net → cpu: the network monotasks run in three rounds of
	// two, and the last one's CPU monotask runs after them.
	if _, took := wave(t, c, plan, frames(shuffles[:6], 100)); took < 4*queueDelay {
		t.Errorf("six network monotasks under a limit of 2 took %v, under three rounds of %v and a CPU round", took, queueDelay)
	}

	release := hold(a, resource.Net, 2)
	big, small := frames(shuffles[6:7], 100)[0], frames(shuffles[7:8], 15)[0]
	c.Send(big)
	c.Send(small)
	td, ok := read(t, c).(wire.TaskDone)
	if !ok || td.Records[0].MTID != small.MTs[0].MTID {
		t.Fatalf("with the network queue full, got %+v, want the small task's TaskDone", td)
	}
	release()
	td, ok = read(t, c).(wire.TaskDone)
	if !ok || td.Records[0].MTID != big.MTs[0].MTID {
		t.Fatalf("after the release, got %+v, want the queued task's TaskDone", td)
	}
}

// TestHigherPriorityStartsFirst: with the one core busy, a task of a
// higher-priority job queued behind a lower-priority one starts first.
func TestHigherPriorityStartsFirst(t *testing.T) {
	a, c, plan := microJob(t, Config{Cores: 1}, wire.Welcome{}, workload.MicroParams{})
	name, params := workload.Micro(workload.MicroParams{})
	c.Send(wire.Prepare{JobID: 2, Workload: name, Params: params})
	root := plan.InitialReady()[0]
	release := hold(a, resource.CPU, 1)
	low, high := taskFrame(1, root), taskFrame(2, root)
	low.Prio, high.Prio = 1, 5
	high.Seq = low.Seq + 1 // the master's seqs are unique across jobs
	c.Send(low)
	c.Send(high)
	settle(t, c)
	release()
	for _, want := range []int64{2, 1} {
		if td, ok := read(t, c).(wire.TaskDone); !ok || td.JobID != want {
			t.Fatalf("got %+v, want job %d's TaskDone", td, want)
		}
	}
}
