package dag

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ursa/internal/resource"
)

// buildShuffleJob constructs the paper's reduceByKey example (§4.1.2):
// creator(CPU) -async-> ser(CPU) -sync-> shuffle(Net) -async-> deser(CPU),
// with mapP map partitions and redP reduce partitions.
func buildShuffleJob(mapP, redP int, inputPer float64) (*Graph, *Dataset) {
	g := NewGraph()
	input := g.CreateData(mapP)
	input.SetUniformInput(inputPer * float64(mapP))
	msg := g.CreateData(mapP)
	shuffled := g.CreateData(redP)
	result := g.CreateData(redP)

	creator := g.CreateOp(resource.CPU, "creator").Read(input)
	interm := g.CreateData(mapP)
	creator.Create(interm)
	ser := g.CreateOp(resource.CPU, "ser").Read(interm).Create(msg)
	ser.OutputRatio = 0.5
	shuffle := g.CreateOp(resource.Net, "shuffle").Read(msg).Create(shuffled)
	deser := g.CreateOp(resource.CPU, "deser").Read(shuffled).Create(result)

	creator.To(ser, Async)
	ser.To(shuffle, Sync)
	shuffle.To(deser, Async)
	return g, result
}

func TestBuildShuffleStructure(t *testing.T) {
	g, _ := buildShuffleJob(4, 2, 100)
	p := g.MustBuild()

	// creator+ser collapse into one CPU lop: 3 lops total.
	if len(p.lops) != 3 {
		t.Fatalf("lops = %d, want 3 (creator+ser collapsed)", len(p.lops))
	}
	// Monotasks: 4 collapsed CPU + 2 net + 2 cpu = 8 real (plus barriers).
	if got := len(p.RealMonotasks()); got != 8 {
		t.Fatalf("real monotasks = %d, want 8", got)
	}
	if len(p.Monotasks) != 9 {
		t.Fatalf("monotasks incl. barriers = %d, want 9 (one sync barrier)", len(p.Monotasks))
	}
	// Tasks: 4 map tasks + 2 reduce tasks (shuffle+deser collocated).
	if len(p.Tasks) != 6 {
		t.Fatalf("tasks = %d, want 6", len(p.Tasks))
	}
	if len(p.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(p.Stages))
	}
	var mapStage, redStage *Stage
	for _, s := range p.Stages {
		if len(s.Tasks) == 4 {
			mapStage = s
		} else if len(s.Tasks) == 2 {
			redStage = s
		}
	}
	if mapStage == nil || redStage == nil {
		t.Fatalf("stage sizes wrong: %d and %d", len(p.Stages[0].Tasks), len(p.Stages[1].Tasks))
	}
	// Reduce tasks contain exactly one net and one cpu monotask.
	for _, task := range redStage.Tasks {
		if len(task.Monotasks) != 2 {
			t.Errorf("reduce task has %d monotasks, want 2", len(task.Monotasks))
		}
		if task.Ready() {
			t.Error("reduce task ready before map stage completed")
		}
	}
	for _, task := range mapStage.Tasks {
		if !task.Ready() {
			t.Error("map task not initially ready")
		}
		if len(task.Monotasks) != 1 {
			t.Errorf("map task has %d monotasks, want 1 collapsed CPU", len(task.Monotasks))
		}
	}
	if got := len(p.InitialReady()); got != 4 {
		t.Errorf("InitialReady = %d, want 4", got)
	}
}

func TestRunToCompletionPropagatesSizes(t *testing.T) {
	g, result := buildShuffleJob(4, 2, 100)
	p := g.MustBuild()

	// Drive the plan to completion breadth-first, checking sizes.
	ready := p.InitialReady()
	var runnable []*Monotask
	for _, task := range ready {
		runnable = append(runnable, task.ReadyMonotasks()...)
	}
	steps := 0
	for len(runnable) > 0 {
		mt := runnable[0]
		runnable = runnable[1:]
		p.Prepare(mt)
		res := p.Complete(mt)
		runnable = append(runnable, res.NewReadyMonotasks...)
		for _, nt := range res.NewReadyTasks {
			runnable = append(runnable, nt.ReadyMonotasks()...)
		}
		steps++
	}
	if !p.AllDone() {
		t.Fatal("plan not done after draining runnable monotasks")
	}
	if steps != len(p.RealMonotasks()) {
		t.Errorf("executed %d monotasks, want %d", steps, len(p.RealMonotasks()))
	}
	// Map input 400 total, ser ratio 0.5 => shuffle moves 200 bytes; deser
	// ratio 1 => result total 200, split over 2 partitions.
	if got := result.Total(); math.Abs(got-200) > 1e-9 {
		t.Errorf("result total = %v, want 200", got)
	}
	for i, s := range result.PartSizes {
		if math.Abs(s-100) > 1e-9 {
			t.Errorf("result partition %d = %v, want 100", i, s)
		}
	}
}

func TestMonotaskInputSizes(t *testing.T) {
	g, _ := buildShuffleJob(4, 2, 100)
	p := g.MustBuild()
	// Map monotask input = its partition (100); CPU work = intensity 1 on
	// creator (100) + intensity 1 on ser (100) = 200.
	for _, task := range p.InitialReady() {
		mt := task.ReadyMonotasks()[0]
		p.Prepare(mt)
		if math.Abs(mt.InputBytes-100) > 1e-9 {
			t.Errorf("map monotask input = %v, want 100", mt.InputBytes)
		}
		if math.Abs(mt.CPUWork-200) > 1e-9 {
			t.Errorf("map monotask work = %v, want 200 (chained intensities)", mt.CPUWork)
		}
	}
}

func TestSkewedShuffleShards(t *testing.T) {
	g := NewGraph()
	input := g.CreateData(2)
	input.SetUniformInput(100)
	mid := g.CreateData(2)
	out := g.CreateData(2)
	m := g.CreateOp(resource.CPU, "map").Read(input).Create(mid)
	sh := g.CreateOp(resource.Net, "shuffle").Read(mid).Create(out)
	sh.Shards = []float64{0.75, 0.25}
	m.To(sh, Sync)
	p := g.MustBuild()

	run(t, p)
	if math.Abs(out.PartSizes[0]-75) > 1e-9 || math.Abs(out.PartSizes[1]-25) > 1e-9 {
		t.Errorf("skewed outputs = %v, want [75 25]", out.PartSizes)
	}
}

func TestBroadcastPullsWholeDataset(t *testing.T) {
	g := NewGraph()
	small := g.CreateData(2)
	small.SetUniformInput(10)
	copies := g.CreateData(4)
	bc := g.CreateOp(resource.Net, "broadcast").Read(small).Create(copies)
	bc.Broadcast = true
	bc.Parallelism = 4
	p := g.MustBuild()
	for _, task := range p.InitialReady() {
		for _, mt := range task.ReadyMonotasks() {
			p.Prepare(mt)
			if math.Abs(mt.InputBytes-10) > 1e-9 {
				t.Errorf("broadcast monotask input = %v, want full 10", mt.InputBytes)
			}
		}
	}
}

func TestUnequalParallelismConservesBytes(t *testing.T) {
	for _, parts := range [][2]int{{8, 2}, {2, 8}, {5, 3}} {
		g := NewGraph()
		input := g.CreateData(parts[0])
		input.SetUniformInput(1000)
		out := g.CreateData(parts[1])
		a := g.CreateOp(resource.CPU, "a").Read(input)
		mid := g.CreateData(parts[0])
		a.Create(mid)
		b := g.CreateOp(resource.CPU, "b").Read(mid).Create(out)
		b.Parallelism = parts[1]
		a.To(b, Sync) // avoid collapse; bipartite deps
		p := g.MustBuild()
		run(t, p)
		if got := out.Total(); math.Abs(got-1000) > 1e-6 {
			t.Errorf("parts %v: output total = %v, want 1000", parts, got)
		}
	}
}

func TestEstimateMatchesActual(t *testing.T) {
	g, _ := buildShuffleJob(4, 2, 100)
	p := g.MustBuild()
	// Complete the map stage so reduce tasks become ready.
	var redTasks []*Task
	for _, task := range p.InitialReady() {
		mt := task.ReadyMonotasks()[0]
		p.Prepare(mt)
		res := p.Complete(mt)
		redTasks = append(redTasks, res.NewReadyTasks...)
	}
	if len(redTasks) != 2 {
		t.Fatalf("ready reduce tasks = %d, want 2", len(redTasks))
	}
	task := redTasks[0]
	p.Estimate(task, 1.5)
	// Net input: 200/2 = 100. CPU (deser) estimated input = 100 (ratio 1).
	if math.Abs(task.EstUsage[resource.Net]-100) > 1e-9 {
		t.Errorf("net estimate = %v, want 100", task.EstUsage[resource.Net])
	}
	if math.Abs(task.EstUsage[resource.CPU]-100) > 1e-9 {
		t.Errorf("cpu estimate = %v, want 100", task.EstUsage[resource.CPU])
	}
	if math.Abs(task.InputBytes-100) > 1e-9 {
		t.Errorf("I(t) = %v, want 100", task.InputBytes)
	}
	if math.Abs(task.EstUsage[resource.Mem]-150) > 1e-9 {
		t.Errorf("mem estimate = %v, want m2i*I = 150", task.EstUsage[resource.Mem])
	}
	// Run it and verify actual inputs match the estimate exactly here.
	for _, mt := range task.ReadyMonotasks() {
		p.Prepare(mt)
		if math.Abs(mt.InputBytes-100) > 1e-9 {
			t.Errorf("actual net input = %v, want 100", mt.InputBytes)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	// Cycle.
	g := NewGraph()
	d := g.CreateData(1)
	d.SetUniformInput(1)
	a := g.CreateOp(resource.CPU, "a").Read(d)
	ad := g.CreateData(1)
	a.Create(ad)
	b := g.CreateOp(resource.CPU, "b").Read(ad)
	bd := g.CreateData(1)
	b.Create(bd)
	a.To(b, Sync)
	b.To(a, Sync)
	if _, err := g.Build(); err == nil {
		t.Error("cycle not detected")
	}

	// Shard count mismatch.
	g3 := NewGraph()
	in3 := g3.CreateData(2)
	in3.SetUniformInput(10)
	out3 := g3.CreateData(4)
	n := g3.CreateOp(resource.Net, "n").Read(in3).Create(out3)
	n.Shards = []float64{0.5, 0.5} // parallelism is 4
	if _, err := g3.Build(); err == nil {
		t.Error("shard mismatch not detected")
	}

	// Broadcast on a CPU op.
	g4 := NewGraph()
	in4 := g4.CreateData(1)
	in4.SetUniformInput(1)
	cp := g4.CreateOp(resource.CPU, "cp").Read(in4)
	cp.Parallelism = 1
	cp.Broadcast = true
	if _, err := g4.Build(); err == nil {
		t.Error("broadcast CPU op not rejected")
	}
}

func TestDepth(t *testing.T) {
	g, _ := buildShuffleJob(4, 2, 100)
	if got := g.Depth(); got != 4 {
		t.Errorf("Depth = %d, want 4 (creator,ser,shuffle,deser)", got)
	}
}

func TestCollapseRespectsSyncBoundary(t *testing.T) {
	// CPU -sync-> CPU must NOT collapse.
	g := NewGraph()
	in := g.CreateData(2)
	in.SetUniformInput(10)
	mid := g.CreateData(2)
	out := g.CreateData(2)
	a := g.CreateOp(resource.CPU, "a").Read(in).Create(mid)
	b := g.CreateOp(resource.CPU, "b").Read(mid).Create(out)
	a.To(b, Sync)
	p := g.MustBuild()
	if len(p.lops) != 2 {
		t.Errorf("lops = %d, want 2 (sync CPU edge must not collapse)", len(p.lops))
	}
}

func TestCollapseUnequalParallelismSkipped(t *testing.T) {
	g := NewGraph()
	in := g.CreateData(4)
	in.SetUniformInput(100)
	mid := g.CreateData(4)
	out := g.CreateData(2)
	a := g.CreateOp(resource.CPU, "a").Read(in).Create(mid)
	b := g.CreateOp(resource.CPU, "b").Read(mid).Create(out)
	b.Parallelism = 2
	a.To(b, Async)
	p := g.MustBuild()
	if len(p.lops) != 2 {
		t.Errorf("lops = %d, want 2 (unequal parallelism must not collapse)", len(p.lops))
	}
	run(t, p)
	if got := out.Total(); math.Abs(got-100) > 1e-6 {
		t.Errorf("output total = %v, want 100", got)
	}
}

// TestPropertyShuffleConservation: for random map/reduce parallelism and
// ratios, bytes into the shuffle equal map output, and bytes out equal
// bytes in (ratio 1 network op).
func TestPropertyShuffleConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mapP := rng.Intn(16) + 1
		redP := rng.Intn(16) + 1
		ratio := 0.1 + rng.Float64()
		total := 1000 * rng.Float64()

		g := NewGraph()
		in := g.CreateData(mapP)
		in.SetUniformInput(total)
		msg := g.CreateData(mapP)
		shuffled := g.CreateData(redP)
		m := g.CreateOp(resource.CPU, "m").Read(in).Create(msg)
		m.OutputRatio = ratio
		sh := g.CreateOp(resource.Net, "sh").Read(msg).Create(shuffled)
		m.To(sh, Sync)
		p, err := g.Build()
		if err != nil {
			return false
		}
		runQuiet(p)
		want := total * ratio
		return math.Abs(shuffled.Total()-want) < 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAllDoneMatchesWalk holds the count AllDone compares to a walk over the
// tasks after every completion, with every reduce task reset for retry once,
// half-way through (its shuffle monotask done, its deser monotask prepared).
func TestAllDoneMatchesWalk(t *testing.T) {
	g, _ := buildShuffleJob(4, 2, 100)
	p := g.MustBuild()
	walk := func() bool {
		for _, task := range p.Tasks {
			if !task.Done() {
				return false
			}
		}
		return true
	}
	var runnable []*Monotask
	for _, task := range p.InitialReady() {
		runnable = append(runnable, task.ReadyMonotasks()...)
	}
	retried := map[*Task]bool{}
	completed := 0
	for len(runnable) > 0 {
		mt := runnable[0]
		runnable = runnable[1:]
		p.Prepare(mt)
		if mt.Task.doneCount > 0 && !retried[mt.Task] {
			retried[mt.Task] = true
			if n := p.ResetForRetry(mt.Task); n != 1 {
				t.Fatalf("ResetForRetry re-executes %d monotasks, want 1", n)
			}
			runnable = append(runnable, mt.Task.ReadyMonotasks()...)
			continue
		}
		res := p.Complete(mt)
		completed++
		if p.AllDone() != walk() {
			t.Fatalf("after %d completions AllDone = %v, a walk over the tasks says %v", completed, p.AllDone(), walk())
		}
		runnable = append(runnable, res.NewReadyMonotasks...)
		for _, nt := range res.NewReadyTasks {
			runnable = append(runnable, nt.ReadyMonotasks()...)
		}
	}
	if !p.AllDone() || len(retried) != 2 || completed != len(p.RealMonotasks()) {
		t.Fatalf("AllDone = %v after %d of %d monotasks, %d tasks retried (want 2)",
			p.AllDone(), completed, len(p.RealMonotasks()), len(retried))
	}
}

// run drives a plan to completion, failing the test if it stalls.
func run(t *testing.T, p *Plan) {
	t.Helper()
	if !runQuiet(p) {
		t.Fatal("plan stalled before completion")
	}
}

func runQuiet(p *Plan) bool {
	runSteps(p, len(p.Monotasks))
	return p.AllDone()
}

// runSteps completes up to limit monotasks of a fresh plan in topological
// order (fewer if the plan stalls or finishes first).
func runSteps(p *Plan, limit int) {
	var runnable []*Monotask
	for _, task := range p.InitialReady() {
		runnable = append(runnable, task.ReadyMonotasks()...)
	}
	for ; limit > 0 && len(runnable) > 0; limit-- {
		mt := runnable[0]
		runnable = runnable[1:]
		p.Prepare(mt)
		res := p.Complete(mt)
		runnable = append(runnable, res.NewReadyMonotasks...)
		for _, nt := range res.NewReadyTasks {
			runnable = append(runnable, nt.ReadyMonotasks()...)
		}
	}
}
