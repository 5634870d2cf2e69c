package core

import (
	"container/heap"
	"math"
	"testing"
	"testing/quick"

	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// mkQueuedMT fabricates a queue entry without a full plan.
func mkQueuedMT(jobPrio float64, stage *dag.Stage, kind resource.Kind, input float64, seq uint64) *queuedMT {
	g := dag.NewGraph()
	in := g.CreateData(1)
	in.SetUniformInput(input)
	op := g.CreateOp(kind, "x").Read(in)
	op.Parallelism = 1
	p := g.MustBuild()
	mt := p.RealMonotasks()[0]
	mt.InputBytes = input
	mt.Task.Stage = stage
	return &queuedMT{job: &Job{priority: jobPrio}, mt: mt, prio: jobPrio, seq: seq}
}

func popAll(q *mtQueue) []*queuedMT {
	var out []*queuedMT
	for q.Len() > 0 {
		out = append(out, heap.Pop(q).(*queuedMT))
	}
	return out
}

func TestQueueOrdersByJobPriority(t *testing.T) {
	cfg := Config{}
	q := &mtQueue{cfg: &cfg}
	s := &dag.Stage{}
	low := mkQueuedMT(1, s, resource.CPU, 100, 1)
	high := mkQueuedMT(5, s, resource.CPU, 100, 2)
	heap.Push(q, low)
	heap.Push(q, high)
	got := popAll(q)
	if got[0] != high {
		t.Error("higher-priority job's monotask not first")
	}
}

func TestQueueCPUDescendingNetAscending(t *testing.T) {
	cfg := Config{}
	s := &dag.Stage{}
	j := &Job{priority: 1}

	cpuQ := &mtQueue{cfg: &cfg}
	small := mkQueuedMT(1, s, resource.CPU, 10, 1)
	big := mkQueuedMT(1, s, resource.CPU, 1000, 2)
	small.job, big.job = j, j
	heap.Push(cpuQ, small)
	heap.Push(cpuQ, big)
	if got := popAll(cpuQ); got[0] != big {
		t.Error("CPU queue should pop the largest monotask first (§4.2.3)")
	}

	netQ := &mtQueue{cfg: &cfg}
	smallN := mkQueuedMT(1, s, resource.Net, 10, 1)
	bigN := mkQueuedMT(1, s, resource.Net, 1000, 2)
	smallN.job, bigN.job = j, j
	heap.Push(netQ, bigN)
	heap.Push(netQ, smallN)
	if got := popAll(netQ); got[0] != smallN {
		t.Error("network queue should pop the smallest monotask first (§4.2.3)")
	}
}

func TestQueueFIFOWhenOrderingDisabled(t *testing.T) {
	cfg := Config{DisableMonotaskOrdering: true}
	q := &mtQueue{cfg: &cfg}
	s := &dag.Stage{}
	first := mkQueuedMT(1, s, resource.CPU, 10, 1)
	second := mkQueuedMT(9, s, resource.CPU, 1000, 2)
	heap.Push(q, first)
	heap.Push(q, second)
	if got := popAll(q); got[0] != first {
		t.Error("disabled ordering should be FIFO")
	}
}

func TestQueueSizeOrderingOnlyWithinSameStage(t *testing.T) {
	cfg := Config{}
	q := &mtQueue{cfg: &cfg}
	j := &Job{priority: 1}
	s1, s2 := &dag.Stage{ID: 1}, &dag.Stage{ID: 2}
	early := mkQueuedMT(1, s1, resource.CPU, 10, 1)
	lateBig := mkQueuedMT(1, s2, resource.CPU, 1000, 2)
	early.job, lateBig.job = j, j
	heap.Push(q, early)
	heap.Push(q, lateBig)
	if got := popAll(q); got[0] != early {
		t.Error("across stages FIFO should win over size ordering")
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
