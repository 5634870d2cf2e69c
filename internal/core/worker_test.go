package core

import (
	"math"
	"testing"
	"testing/quick"

	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/mtqueue"
	"ursa/internal/resource"
)

// queues is a worker's queues with limits no test reaches, FIFO if asked.
func queues(fifo bool) *mtqueue.Queues[*dag.Monotask] {
	return &mtqueue.Queues[*dag.Monotask]{Limits: mtqueue.Limits{Cores: 1 << 20, Net: 1 << 20, FIFO: fifo}}
}

// enqueue fabricates a ready monotask without a full plan and queues it the
// way Worker.Enqueue does: under its job's priority, job, stage and input
// size, snapshotted now.
func enqueue(q *mtqueue.Queues[*dag.Monotask], j *Job, stage *dag.Stage, kind resource.Kind, input float64) *dag.Monotask {
	g := dag.NewGraph()
	in := g.CreateData(1)
	in.SetUniformInput(input)
	op := g.CreateOp(kind, "x").Read(in)
	op.Parallelism = 1
	p := g.MustBuild()
	mt := p.RealMonotasks()[0]
	mt.InputBytes = input
	mt.Task.Stage = stage
	q.Add(kind, j.priority, int64(j.ID), stage.ID, input, mt)
	return mt
}

func popAll(q *mtqueue.Queues[*dag.Monotask], kind resource.Kind) []*dag.Monotask {
	var out []*dag.Monotask
	for {
		mt, ok := q.Next(kind)
		if !ok {
			return out
		}
		out = append(out, mt)
	}
}

func TestQueueOrdersByJobPriority(t *testing.T) {
	q := queues(false)
	s := &dag.Stage{}
	low := enqueue(q, &Job{ID: 1, priority: 1}, s, resource.CPU, 100)
	high := enqueue(q, &Job{ID: 2, priority: 5}, s, resource.CPU, 100)
	got := popAll(q, resource.CPU)
	if got[0] != high || got[1] != low {
		t.Error("higher-priority job's monotask not first")
	}
}

func TestQueueCPUDescendingNetAscending(t *testing.T) {
	s := &dag.Stage{}
	j := &Job{priority: 1}

	q := queues(false)
	enqueue(q, j, s, resource.CPU, 10)
	big := enqueue(q, j, s, resource.CPU, 1000)
	if got := popAll(q, resource.CPU); got[0] != big {
		t.Error("CPU queue should pop the largest monotask first (§4.2.3)")
	}

	enqueue(q, j, s, resource.Net, 1000)
	smallN := enqueue(q, j, s, resource.Net, 10)
	if got := popAll(q, resource.Net); got[0] != smallN {
		t.Error("network queue should pop the smallest monotask first (§4.2.3)")
	}
}

func TestQueueFIFOWhenOrderingDisabled(t *testing.T) {
	q := queues(true)
	s := &dag.Stage{}
	first := enqueue(q, &Job{ID: 1, priority: 1}, s, resource.CPU, 10)
	enqueue(q, &Job{ID: 2, priority: 9}, s, resource.CPU, 1000)
	if got := popAll(q, resource.CPU); got[0] != first {
		t.Error("disabled ordering should be FIFO")
	}
}

func TestQueueSizeOrderingOnlyWithinSameStage(t *testing.T) {
	q := queues(false)
	j := &Job{priority: 1}
	s1, s2 := &dag.Stage{ID: 1}, &dag.Stage{ID: 2}
	early := enqueue(q, j, s1, resource.CPU, 10)
	enqueue(q, j, s2, resource.CPU, 1000)
	if got := popAll(q, resource.CPU); got[0] != early {
		t.Error("across stages FIFO should win over size ordering")
	}
}

// TestQueueLimitsAndBypass: a kind runs at most its limit at once, and a
// network monotask below the bypass threshold never enters its queue.
func TestQueueLimitsAndBypass(t *testing.T) {
	q := &mtqueue.Queues[int]{Limits: mtqueue.Limits{Cores: 2, Net: 1, Small: 16}}
	for i := 0; i < 3; i++ {
		if q.Add(resource.CPU, 1, 0, 0, 100, i) {
			t.Fatal("a CPU monotask bypassed its queue")
		}
	}
	if !q.Add(resource.Net, 1, 0, 0, 15, 9) {
		t.Error("a network monotask below the threshold was queued")
	}
	q.Add(resource.Net, 1, 0, 0, 16, 10)
	q.Add(resource.Net, 1, 0, 0, 17, 11)
	started := 0
	for _, ok := q.Next(resource.CPU); ok; _, ok = q.Next(resource.CPU) {
		started++
	}
	if started != 2 || q.Len(resource.CPU) != 1 {
		t.Errorf("started %d CPU monotasks with %d queued, want 2 and 1", started, q.Len(resource.CPU))
	}
	if _, ok := q.Next(resource.Net); !ok {
		t.Fatal("no network monotask started")
	}
	if _, ok := q.Next(resource.Net); ok {
		t.Error("a second network monotask started over a limit of 1")
	}
	q.Done(resource.Net)
	if _, ok := q.Next(resource.Net); !ok {
		t.Error("a freed network slot started nothing")
	}
}

func TestRateMonitorAdapts(t *testing.T) {
	loop := eventloop.New()
	rm := newRateMonitor(loop, 100, eventloop.Second)
	if got := rm.rate(); got != 100 {
		t.Fatalf("initial rate = %v", got)
	}
	// Observe work at 50 B/s within the first window.
	rm.sample(500, 10)
	loop.RunUntil(eventloop.Time(eventloop.Second))
	got := rm.rate()
	// Blended at the boundary: 0.5·100 + 0.5·50 = 75.
	if math.Abs(got-75) > 1e-9 {
		t.Errorf("rate after window = %v, want 75", got)
	}
	// Another identical window converges further.
	rm.sample(500, 10)
	loop.RunUntil(eventloop.Time(2 * eventloop.Second))
	if got := rm.rate(); math.Abs(got-62.5) > 1e-9 {
		t.Errorf("rate after second window = %v, want 62.5", got)
	}
	// An empty window decays the estimate back toward the nominal rate
	// rather than pinning the last measurement forever.
	loop.RunUntil(eventloop.Time(3 * eventloop.Second))
	if got := rm.rate(); math.Abs(got-81.25) > 1e-9 {
		t.Errorf("rate after idle window = %v, want 81.25", got)
	}
}

func TestAPTZeroWithIdleCores(t *testing.T) {
	loop, clus := testCluster(1)
	sys := NewSystem(loop, clus, Config{})
	w := sys.Workers[0]
	if got := w.APT(resource.CPU); got != 0 {
		t.Errorf("idle-core APT = %v, want 0", got)
	}
	// With all cores allocated, APT reflects the estimated load.
	w.Machine.Cores.MustAlloc(4)
	w.load[resource.CPU] = 4e8 // bytes at 4 cores × 1e8 B/s → 1 s
	if got := w.APT(resource.CPU); math.Abs(got-1) > 1e-9 {
		t.Errorf("APT = %v, want 1s", got)
	}
	w.Machine.Cores.FreeAlloc(4)
}

func TestScoreTaskViabilityGates(t *testing.T) {
	loop, clus := testCluster(2)
	sys := NewSystem(loop, clus, Config{})
	ctx := &PlaceContext{Cfg: &sys.Cfg, Workers: sys.Workers}
	ctx.prepare()
	task := &dag.Task{Worker: -1}
	task.EstUsage = resource.Vector{}.
		Set(resource.CPU, 1e8).
		Set(resource.Mem, 1e9)

	full := dVec{1, 1, 1, 1}
	if _, ok := scoreTask(ctx, task, 0, &full); !ok {
		t.Error("task rejected on a fully free worker")
	}
	// CPU exhausted: the task needs CPU, so the worker is not viable.
	noCPU := dVec{0, 1, 1, 1}
	if _, ok := scoreTask(ctx, task, 0, &noCPU); ok {
		t.Error("task accepted on a worker with D_cpu = 0")
	}
	// Memory too small.
	task.EstUsage = task.EstUsage.Set(resource.Mem, 1e18)
	if _, ok := scoreTask(ctx, task, 0, &full); ok {
		t.Error("task accepted without memory")
	}
}

func TestScoreTaskCapsContribution(t *testing.T) {
	loop, clus := testCluster(1)
	sys := NewSystem(loop, clus, Config{})
	_ = loop
	ctx := &PlaceContext{Cfg: &sys.Cfg, Workers: sys.Workers}
	ctx.prepare()
	// A huge task: Inc_r > D_r everywhere, so F = Σ D_r².
	task := &dag.Task{Worker: -1}
	task.EstUsage = resource.Vector{}.
		Set(resource.CPU, 1e15).
		Set(resource.Net, 1e15)
	d := dVec{0.5, 0.25, 1, 1}
	f, ok := scoreTask(ctx, task, 0, &d)
	if !ok {
		t.Fatal("viable task rejected")
	}
	want := 0.5*0.5 + 0.25*0.25
	if math.Abs(f-want) > 1e-9 {
		t.Errorf("F = %v, want capped %v", f, want)
	}
}

// TestPropertyPlacementNeverExceedsMemory: placements only go to workers
// whose free memory covers the estimate at scoring time.
func TestPropertyPlacementNeverExceedsMemory(t *testing.T) {
	f := func(memGB uint8) bool {
		est := float64(memGB%64) * 1e9
		loop, clus := testCluster(1)
		sys := NewSystem(loop, clus, Config{})
		ctx := &PlaceContext{Cfg: &sys.Cfg, Workers: sys.Workers}
		ctx.prepare()
		task := &dag.Task{Worker: -1}
		task.EstUsage = resource.Vector{}.
			Set(resource.CPU, 1e8).
			Set(resource.Mem, est)
		_, ok := scoreTask(ctx, task, 0, &dVec{1, 1, 1, 1})
		return ok == (est <= sys.Workers[0].MemFree())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
