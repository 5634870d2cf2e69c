package agent

// The build cache: jobs with one (workload, params) share one build, and
// each still runs in a runtime of its own.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/dataset"
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

// countedInput is a job of one generated input of countedRows rows over
// countedParts partitions, keyed and summed into 2; its generator counts the
// rows it makes of each partition in generatedRows.
const (
	countedInput = "agent-test-counted-input"
	countedRows  = 40
	countedParts = 4
)

var generatedRows [countedParts]atomic.Int64

func init() {
	workload.Register(countedInput, func([]byte) (*workload.BuiltJob, error) {
		sess := dataset.NewSession()
		in := dataset.Generate(sess, countedRows, countedParts, func(part, parts int) []int {
			var rows []int
			for i := part; i < countedRows; i += parts {
				rows = append(rows, i)
			}
			generatedRows[part].Add(int64(len(rows)))
			return rows
		})
		keyed := dataset.Map(in, "key", func(v int) dataset.Pair[string, int] {
			return dataset.Pair[string, int]{Key: fmt.Sprintf("k%d", v%3), Val: v}
		})
		sums := dataset.ReduceByKey(keyed, "sum", 2, func(a, b int) int { return a + b })
		plan, err := sess.Graph().Build()
		return &workload.BuiltJob{
			Spec: core.JobSpec{Name: countedInput, Graph: sess.Graph()},
			Plan: plan, Inputs: sess.InputBindings(), Output: sums.Dag(),
		}, err
	})
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
// before it: a Task for a job never prepared is completed from the read
// loop, in order.
func settle(t *testing.T, c *wire.Conn) {
	t.Helper()
	c.Send(task(-1, 0, 1))
	if m := taskDone(t, c); m.JobID != -1 || m.Err == "" {
		t.Fatalf("got %+v, want the failed record of job -1's task", m)
	}
}

// taskFrame is the Task frame of every monotask of t, dispatched under the
// task's ID + 1.
func taskFrame(job int64, t *dag.Task) wire.Task {
	f := wire.Task{JobID: job, Seq: uint64(t.ID) + 1}
	for _, mt := range t.Monotasks {
		f.MTs = append(f.MTs, wire.Dispatch{JobID: job, MTID: int32(mt.ID)})
	}
	return f
}

// runJob drives job jobID, prepared as micro with params, to completion on
// the agent the way a one-worker master would: it sends every ready task of
// its own build of the job at once (the agent holds every partition, so
// nothing is fetched) and waits for their TaskDone frames before the next
// wave. mid, if set, runs once the first wave is in flight. It returns the
// job's result rows from the agent's store.
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
	ready := plan.InitialReady()
	for len(ready) > 0 {
		wave := ready
		ready = nil
		for _, task := range wave {
			c.Send(taskFrame(jobID, task))
		}
		if mid != nil {
			mid()
			mid = nil
		}
		for range wave {
			td, ok := read(t, c).(wire.TaskDone)
			if !ok || td.JobID != jobID {
				t.Fatalf("got %+v, want a TaskDone of job %d", td, jobID)
			}
			for _, m := range td.Records {
				if m.Err != "" {
					t.Fatalf("got %+v, want a clean record", m)
				}
				mt := plan.Monotasks[m.MTID]
				plan.Prepare(mt) // the records come producers first
				ready = append(ready, plan.Complete(mt).NewReadyTasks...)
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
// error, so a repeated Prepare does not build again, and every Task for it
// completes with the builder's message: that record is how the master
// learns the build failed. A JobDone then forgets the job.
func TestFailedBuildCompletesDispatches(t *testing.T) {
	a, c := joined(t, Config{Cores: 1})
	before := failedBuilds.Load()
	c.Send(wire.Prepare{JobID: 1, Workload: failingBuild})
	c.Send(wire.Prepare{JobID: 1, Workload: failingBuild})
	for seq := uint64(1); seq <= 2; seq++ {
		c.Send(task(1, int32(seq), seq))
		if m := taskDone(t, c); m.Seq != seq || !strings.Contains(m.Err, "agent-test builder refused") {
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

// generated reads how many rows of each partition countedInput's generator
// has made.
func generated() (n [countedParts]int64) {
	for p := range n {
		n[p] = generatedRows[p].Load()
	}
	return n
}

// TestDispatchGeneratesWhatItReads: a Prepare makes no input rows. A
// Task whose monotask reads the job's generated input makes the partitions
// that monotask reads and no other. A monotask dispatched, aborted and
// dispatched again leaves each partition it reads holding its rows once.
// Run it under -race: the aborted and the live execution may make one
// partition at once.
func TestDispatchGeneratesWhatItReads(t *testing.T) {
	a, c := joined(t, Config{Cores: 2})
	bj, err := workload.Describe(countedInput, nil)
	if err != nil {
		t.Fatal(err)
	}
	input := bj.Inputs[0]
	var roots []*dag.Monotask // the monotasks that read the generated input
	for _, mt := range bj.Plan.RealMonotasks() {
		if len(mt.Ins) == 0 {
			roots = append(roots, mt)
		}
	}
	if len(roots) < 3 {
		t.Fatalf("%s has %d root monotasks, need 3", countedInput, len(roots))
	}
	reads := func(mt *dag.Monotask) (parts []int) {
		for _, dp := range localrt.InputParts(bj.Plan, mt) {
			if dp.Dataset.ID == input.Dataset.ID {
				parts = append(parts, dp.Part)
			}
		}
		return parts
	}
	size := func(p int) int64 { return int64(localrt.PartLen(countedRows, p, countedParts)) }

	before := generated()
	c.Send(wire.Prepare{JobID: 1, Workload: countedInput})
	settle(t, c)
	if now := generated(); now != before {
		t.Fatalf("Prepare made input rows: %v, before %v", now, before)
	}
	first := roots[0]
	c.Send(task(1, int32(first.ID), 1))
	if m := taskDone(t, c); m.Seq != 1 || m.Err != "" {
		t.Fatalf("got %+v, want the clean record of seq 1", m)
	}
	now := generated()
	for p := range now {
		want := int64(0)
		if slices.Contains(reads(first), p) {
			want = size(p)
		}
		if got := now[p] - before[p]; got != want {
			t.Errorf("after %v, partition %d made %d rows, want %d", first, p, got, want)
		}
	}

	again := roots[1]
	c.Send(task(1, int32(again.ID), 2))
	c.Send(wire.Abort{JobID: 1, Seq: 2})
	c.Send(task(1, int32(again.ID), 3))
	for {
		if m := taskDone(t, c); m.Err != "" {
			t.Fatalf("got %+v, want a clean record", m)
		} else if m.Seq == 3 {
			break
		}
	}
	a.drain()
	rt := a.resolveJob(1)
	ds := rt.DatasetByID(input.Dataset.ID)
	for _, p := range reads(again) {
		refs, err := rt.PartBlobsAppend(nil, ds, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != 1 || refs[0].MTID != localrt.InputMTID {
			t.Fatalf("partition %d holds %d contributions %+v, want the input's one", p, len(refs), refs)
		}
		rows, err := workload.Codec{}.DecodeBlob(refs[0].Data, refs[0].Flags, refs[0].RawLen)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rows)) != size(p) {
			t.Errorf("partition %d holds %d rows, want %d", p, len(rows), size(p))
		}
	}
	now = generated()
	for p := range now {
		if !slices.Contains(reads(first), p) && !slices.Contains(reads(again), p) && now[p] != before[p] {
			t.Errorf("partition %d, read by no dispatched monotask, made %d rows", p, now[p]-before[p])
		}
	}
}
