package agent

// The build cache: jobs with one (workload, params) share one build, and
// each still runs in a runtime of its own.

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ursa/internal/dag"
	"ursa/internal/localrt"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// countingMicro is micro under another name, counting its builds.
const countingMicro = "agent-test-counting-micro"

var microBuilds atomic.Int64

// failingBuild is a workload whose builder always fails, counting its calls.
const failingBuild = "agent-test-failing-build"

var failedBuilds atomic.Int64

func init() {
	workload.Register(countingMicro, func(params []byte) (*workload.BuiltJob, error) {
		microBuilds.Add(1)
		return workload.Build("micro", params)
	})
	workload.Register(failingBuild, func([]byte) (*workload.BuiltJob, error) {
		failedBuilds.Add(1)
		return nil, errors.New("agent-test builder refused")
	})
}

// settle returns once the agent's read loop has handled every frame sent
// before it: a Dispatch for a job never prepared is completed from the read
// loop, in order.
func settle(t *testing.T, c *wire.Conn) {
	t.Helper()
	c.Send(wire.Dispatch{JobID: -1})
	if m, ok := read(t, c).(wire.Complete); !ok || m.JobID != -1 || m.Err == "" {
		t.Fatalf("got %+v, want the failed completion of job -1's dispatch", m)
	}
}

// runJob drives job jobID, prepared as micro with params, to completion on
// the agent the way a one-worker master would: it dispatches every ready
// monotask of its own build of the job at once (the agent holds every
// partition, so nothing is fetched) and waits for their completions before
// the next wave. mid, if set, runs once the first wave is in flight. It
// returns the job's result rows from the agent's store.
func runJob(t *testing.T, a *Agent, c *wire.Conn, jobID int64, params []byte, mid func()) []localrt.Row {
	t.Helper()
	bj, err := workload.Build("micro", params)
	if err != nil {
		t.Fatal(err)
	}
	plan := bj.Plan
	for _, in := range bj.Inputs {
		localrt.SplitInput(in.Dataset, in.Rows) // the input sizes Prepare reads
	}
	var ready []*dag.Monotask
	for _, task := range plan.InitialReady() {
		ready = append(ready, task.ReadyMonotasks()...)
	}
	for len(ready) > 0 {
		wave := ready
		ready = nil
		for _, mt := range wave {
			plan.Prepare(mt)
			c.Send(wire.Dispatch{JobID: jobID, MTID: int32(mt.ID), Seq: uint64(mt.ID)})
		}
		if mid != nil {
			mid()
			mid = nil
		}
		for range wave {
			m, ok := read(t, c).(wire.Complete)
			if !ok || m.JobID != jobID || m.Err != "" {
				t.Fatalf("got %+v, want a clean completion of job %d", m, jobID)
			}
			res := plan.Complete(plan.Monotasks[m.MTID])
			ready = append(ready, res.NewReadyMonotasks...)
			for _, task := range res.NewReadyTasks {
				ready = append(ready, task.ReadyMonotasks()...)
			}
		}
	}
	rt := a.resolveJob(jobID)
	if rt == nil {
		t.Fatalf("job %d is not prepared on the agent", jobID)
	}
	rows, err := rt.RowsErr(rt.DatasetByID(bj.Output.ID))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// directMicro runs micro with params in-process: the rows every job of that
// identity must produce.
func directMicro(t *testing.T, params []byte) []localrt.Row {
	t.Helper()
	bj, err := workload.Build("micro", params)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := localrt.LocalRunner{}.RunPlan(bj.Plan, bj.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	return rows(bj.Output)
}

// TestPrepareBuildsOncePerIdentity counts builds: two jobs of one
// (workload, params) build once and both produce the rows of a direct run,
// while a job whose inputs alone exceed the cache's bound builds on every
// Prepare.
func TestPrepareBuildsOncePerIdentity(t *testing.T) {
	a, c := joined(t, Config{Cores: 2})
	_, params := workload.Micro(workload.MicroParams{Rows: 300, InParts: 3, OutParts: 2})
	before := microBuilds.Load()
	c.Send(wire.Prepare{JobID: 1, Workload: countingMicro, Params: params})
	c.Send(wire.Prepare{JobID: 2, Workload: countingMicro, Params: params})
	settle(t, c)
	if n := microBuilds.Load() - before; n != 1 {
		t.Errorf("two jobs of one identity built %d times, want 1", n)
	}
	want := directMicro(t, params)
	for _, job := range []int64{1, 2} {
		if got := runJob(t, a, c, job, params, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("job %d rows differ from direct execution:\n got %v\nwant %v", job, got, want)
		}
	}

	_, big := workload.Micro(workload.MicroParams{Rows: buildCacheRows + 1})
	before = microBuilds.Load()
	c.Send(wire.Prepare{JobID: 3, Workload: countingMicro, Params: big})
	c.Send(wire.Prepare{JobID: 4, Workload: countingMicro, Params: big})
	settle(t, c)
	if n := microBuilds.Load() - before; n != 2 {
		t.Errorf("two jobs over the row bound built %d times, want 2", n)
	}
}

// TestJobDoneLeavesSharedBuild: a JobDone for one job, handled while a job
// sharing its build runs, leaves that job's plan and inputs intact. Run it
// under -race: the agent's read loop closes the finished job's runtime while
// the running job's monotasks read the shared build.
func TestJobDoneLeavesSharedBuild(t *testing.T) {
	a, c := joined(t, Config{Cores: 2})
	_, params := workload.Micro(workload.MicroParams{Rows: 300, InParts: 4, OutParts: 2})
	want := directMicro(t, params)
	c.Send(wire.Prepare{JobID: 1, Workload: countingMicro, Params: params})
	c.Send(wire.Prepare{JobID: 2, Workload: countingMicro, Params: params})
	if got := runJob(t, a, c, 1, params, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("job 1 rows differ from direct execution")
	}
	got := runJob(t, a, c, 2, params, func() { c.Send(wire.JobDone{JobID: 1}) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("job 2 rows after job 1's JobDone differ from direct execution:\n got %v\nwant %v", got, want)
	}
	if a.resolveJob(1) != nil {
		t.Error("job 1 still resolves after its JobDone")
	}
}

// TestFailedBuildCompletesDispatches: a job whose build failed keeps the
// error, so a repeated Prepare does not build again, and every Dispatch for
// it completes with the builder's message: that Complete is how the master
// learns the build failed. A JobDone then forgets the job.
func TestFailedBuildCompletesDispatches(t *testing.T) {
	a, c := joined(t, Config{Cores: 1})
	before := failedBuilds.Load()
	c.Send(wire.Prepare{JobID: 1, Workload: failingBuild})
	c.Send(wire.Prepare{JobID: 1, Workload: failingBuild})
	for seq := uint64(1); seq <= 2; seq++ {
		c.Send(wire.Dispatch{JobID: 1, MTID: int32(seq), Seq: seq})
		m, ok := read(t, c).(wire.Complete)
		if !ok || m.Seq != seq || !strings.Contains(m.Err, "agent-test builder refused") {
			t.Fatalf("got %+v, want seq %d completed with the builder's error", m, seq)
		}
	}
	if n := failedBuilds.Load() - before; n != 1 {
		t.Errorf("a failed job was built %d times, want 1", n)
	}
	c.Send(wire.JobDone{JobID: 1})
	settle(t, c)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.jobs[1] != nil {
		t.Error("the failed job is still held after its JobDone")
	}
}
