package agent

// The agent's frames reach its runner (mtqueue.Runner, whose own tests cover
// the §4.2.3 queues): the Welcome's network limit and bypass threshold and
// each Dispatch's EstInput decide what runs at once.

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
