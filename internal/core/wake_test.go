package core

import (
	"context"
	"testing"
	"time"

	"ursa/internal/cluster"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// heldExecutor parks every started monotask until the test completes it, so
// a test decides which completions happen and in which control-loop batch.
// It mirrors the real executors' core accounting: a running CPU monotask
// holds one core of its worker.
type heldExecutor struct {
	held []*heldMT
}

type heldMT struct {
	w       *Worker
	mt      *dag.Monotask
	done    func(bytes, seconds float64)
	release func()
	aborted bool // its worker failed: the completion must never be reported
}

func (e *heldExecutor) Start(w *Worker, _ *Job, mt *dag.Monotask, done func(bytes, seconds float64)) func() {
	h := &heldMT{w: w, mt: mt, done: done, release: HoldCore(w, mt)}
	e.held = append(e.held, h)
	return func() {
		h.aborted = true
		h.release()
	}
}

// take removes and returns every held monotask.
func (e *heldExecutor) take() []*heldMT {
	h := e.held
	e.held = nil
	return h
}

// complete finishes h, reporting the given measured execution time.
func (h *heldMT) complete(seconds float64) {
	if h.aborted {
		return
	}
	h.release()
	h.done(h.mt.InputBytes, seconds)
}

// cpuJob is a single-stage job of parts CPU tasks over bytesPerTask each.
func cpuJob(parts int, bytesPerTask float64) JobSpec {
	g := dag.NewGraph()
	in := g.CreateData(parts)
	in.SetUniformInput(bytesPerTask * float64(parts))
	out := g.CreateData(parts)
	g.CreateOp(resource.CPU, "work").Read(in).Create(out)
	return JobSpec{Name: "cpu", Graph: g, MemEstimate: 1}
}

// liveHarness is the scheduling core under a LiveDriver with the end-of-batch
// hook wired as internal/live wires it.
type liveHarness struct {
	t    *testing.T
	drv  *eventloop.LiveDriver
	sys  *System
	exec *heldExecutor
	done chan error
}

func newLiveHarness(t *testing.T, schedInterval eventloop.Duration) *liveHarness {
	t.Helper()
	return newLiveHarnessOn(t, cluster.Config{
		Machines: 2, CoresPerMachine: 4, MemPerMachine: 8 * resource.GB,
		NetBandwidth: 1e9, DiskBandwidth: 2e8, CoreRate: 1e8,
	}, Config{SchedInterval: schedInterval})
}

func newLiveHarnessOn(t *testing.T, clusCfg cluster.Config, cfg Config) *liveHarness {
	t.Helper()
	drv := eventloop.NewLiveDriver()
	clus := cluster.New(drv.Loop(), clusCfg)
	sys := NewSystem(drv.Loop(), clus, cfg)
	h := &liveHarness{t: t, drv: drv, sys: sys, exec: &heldExecutor{}, done: make(chan error, 1)}
	sys.SetExecutor(h.exec)
	drv.SetBatchEnd(sys.Sched.PlaceIfChanged)
	go func() { h.done <- drv.Run(context.Background()) }()
	t.Cleanup(func() {
		drv.Stop()
		if err := <-h.done; err != nil {
			t.Errorf("driver: %v", err)
		}
	})
	return h
}

// onLoop runs fn on the control loop and waits for it. The test sends one
// closure at a time to an otherwise idle driver, so each call is one batch of
// its own, and a later call observes the effect of every earlier batch's
// end-of-batch hook.
func (h *liveHarness) onLoop(fn func()) {
	h.t.Helper()
	ran := make(chan struct{})
	h.drv.Send(func() {
		fn()
		close(ran)
	})
	select {
	case <-ran:
	case <-time.After(30 * time.Second):
		h.t.Fatal("control loop did not run the closure")
	}
}

// passes reads the placement-pass counters on the loop.
func (h *liveHarness) passes() (event, timer uint64) {
	h.onLoop(func() { event, timer = h.sys.Sched.PlacementPasses() })
	return
}

// TestOnePlacementPassPerBatch: N ready-task reports, and then N monotask
// completions, delivered in one control-loop batch cause exactly one
// placement pass each, and an event pass at that, at the end of the batch
// itself.
func TestOnePlacementPassPerBatch(t *testing.T) {
	// The tick started by the first submission is due after 100 ms; by then
	// the event passes have emptied the pool, so it places nothing whatever
	// the wall clock does in between.
	h := newLiveHarness(t, 100*eventloop.Millisecond)

	// Three submissions due in one batch: three addReadyTasks, one pass.
	var jobs []*Job
	h.onLoop(func() {
		for i := 0; i < 3; i++ {
			spec := JobSpec{Name: "job", Graph: shuffleJob(2, 2, 4e6), MemEstimate: 1}
			jobs = append(jobs, h.sys.MustSubmit(spec, h.sys.Loop.Now()))
		}
	})
	if ev, tm := h.passes(); ev != 1 || tm != 0 {
		t.Fatalf("after 3 submissions in one batch: %d event / %d timer passes, want 1 / 0", ev, tm)
	}
	var maps []*heldMT
	h.onLoop(func() { maps = h.exec.take() })
	if len(maps) != 6 {
		t.Fatalf("%d map monotasks started by the event pass, want 6", len(maps))
	}

	// Six completions queued while a batch runs are drained together in
	// the next one. They finish all three map stages, so three reduce stages
	// become ready in that batch: still one pass, and it places them.
	h.onLoop(func() {
		for _, m := range maps {
			m := m
			h.drv.Send(func() { m.complete(0.001) })
		}
	})
	placed := func() (n int) {
		h.onLoop(func() {
			for _, j := range jobs {
				n += len(j.jm.TaskPlacedAt)
			}
		})
		return n
	}
	for deadline := time.Now().Add(30 * time.Second); placed() != 12; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d tasks placed, want all 12 (3 jobs of 2 map + 2 reduce)", placed())
		}
	}
	if ev, tm := h.passes(); ev != 2 || tm != 0 {
		t.Fatalf("after 6 completions in one batch: %d event / %d timer passes, want 2 / 0", ev, tm)
	}
}

// TestEventPassPlacesAtOnce: every batch that makes a short job's task ready
// ends in a pass that places it, however recent the previous pass: jobs
// submitted 1 ms apart are each placed at their own instant, and the tick
// places nothing.
//
// Like the fallback test below it plays the driver on a virtual clock: it
// advances the loop and calls PlaceIfChanged where a batch would end.
func TestEventPassPlacesAtOnce(t *testing.T) {
	loop := eventloop.New()
	clus := cluster.New(loop, cluster.Config{
		Machines: 2, CoresPerMachine: 4, MemPerMachine: 8 * resource.GB,
		NetBandwidth: 1e9, DiskBandwidth: 2e8, CoreRate: 1e8,
	})
	sys := NewSystem(loop, clus, Config{SchedInterval: 10 * eventloop.Millisecond})
	sys.SetExecutor(&heldExecutor{})
	const ms = eventloop.Time(eventloop.Millisecond)
	submitAt := func(at eventloop.Time) *Job {
		j := sys.MustSubmit(cpuJob(1, 1e3), at)
		loop.RunUntil(at)
		sys.Sched.PlaceIfChanged()
		return j
	}
	placedAt := func(j *Job) eventloop.Time {
		for _, at := range j.jm.TaskPlacedAt {
			return at
		}
		return -1
	}

	for i := eventloop.Time(0); i < 3; i++ {
		at := i * ms
		if got := placedAt(submitAt(at)); got != at {
			t.Fatalf("job submitted at %v placed at %v, want at once", at, got)
		}
	}
	// The tick due at 10 ms found the pool empty and stopped itself.
	loop.RunUntil(40 * ms)
	if ev, tm := sys.Sched.PlacementPasses(); ev != 3 || tm != 0 {
		t.Fatalf("%d event / %d timer passes, want 3 / 0", ev, tm)
	}
}

// TestEventPassesAreForShortJobs: a job of at least one interval of one
// core's work never triggers an event pass, the tick places it, and a pass
// that a short job triggers takes a longer job's waiting tasks with it.
func TestEventPassesAreForShortJobs(t *testing.T) {
	loop := eventloop.New()
	clus := cluster.New(loop, cluster.Config{
		Machines: 2, CoresPerMachine: 4, MemPerMachine: 8 * resource.GB,
		NetBandwidth: 1e9, DiskBandwidth: 2e8, CoreRate: 1e8,
	})
	// One core works through 1e6 bytes in one 10 ms interval.
	sys := NewSystem(loop, clus, Config{SchedInterval: 10 * eventloop.Millisecond})
	sys.SetExecutor(&heldExecutor{})
	const ms = eventloop.Time(eventloop.Millisecond)
	submitAt := func(spec JobSpec, at eventloop.Time) *Job {
		j := sys.MustSubmit(spec, at)
		loop.RunUntil(at)
		sys.Sched.PlaceIfChanged()
		return j
	}
	placedAt := func(j *Job) eventloop.Time {
		for _, at := range j.jm.TaskPlacedAt {
			return at
		}
		return -1
	}

	long := submitAt(cpuJob(1, 1e6), 0)
	if got := placedAt(long); got >= 0 {
		t.Fatalf("job of one interval's work placed at %v by an event pass", got)
	}
	loop.RunUntil(10 * ms)
	if got := placedAt(long); got != 10*ms {
		t.Fatalf("job of one interval's work placed at %v, want the tick at 10ms", got)
	}
	if ev, tm := sys.Sched.PlacementPasses(); ev != 0 || tm != 1 {
		t.Fatalf("%d event / %d timer passes, want 0 / 1", ev, tm)
	}

	long2 := submitAt(cpuJob(1, 1e6), 21*ms)
	short := submitAt(cpuJob(1, 1e6-1), 22*ms)
	if pl, ps := placedAt(long2), placedAt(short); pl != 22*ms || ps != 22*ms {
		t.Fatalf("longer and short job placed at %v and %v, want both at 22ms by the short job's pass", pl, ps)
	}
	if ev, _ := sys.Sched.PlacementPasses(); ev != 1 {
		t.Fatalf("%d event passes, want 1", ev)
	}
}

// TestPlacementPassSkipsBacklog: a placement pass costs what is admitted, not
// what is queued. Ten thousand jobs wait behind a full reservation beside an
// admitted short job with a pending task; the event pass places that task and
// leaves every queued job's priority as it was. The admission pass that the
// short job's end runs still admits by fresh scores: the head under EJF, the
// least remaining work under SRJF, whatever the stale values said.
func TestPlacementPassSkipsBacklog(t *testing.T) {
	for _, policy := range []Policy{EJF, SRJF} {
		t.Run(policy.String(), func(t *testing.T) {
			loop, clus := testCluster(2) // 16 GB: two 8 GB reservations fill it
			sys := NewSystem(loop, clus, Config{Policy: policy, SchedInterval: 10 * eventloop.Millisecond})
			exec := &heldExecutor{}
			sys.SetExecutor(exec)
			spec := func(bytes float64) JobSpec {
				s := cpuJob(1, bytes)
				s.MemEstimate = float64(8 * resource.GB)
				return s
			}
			// The short job, and a longer one whose remaining work is SRJF's L.
			short := sys.MustSubmit(spec(1e3), 0)
			sys.MustSubmit(spec(1e6), 0)
			loop.RunUntil(0)

			const n, smallest = 10000, 5000
			queued := make([]*Job, n)
			sentinel := func(i int) float64 { return 1e6 + float64(i) }
			for i := range queued {
				bytes := 1e3 + float64(i)
				if i == smallest {
					bytes = 10
				}
				s := spec(bytes)
				plan, err := s.Graph.Build()
				if err != nil {
					t.Fatal(err)
				}
				queued[i] = sys.SubmitPlanNow(s, plan)
				queued[i].priority = sentinel(i)
			}
			if got := sys.Sched.AdmittedCount(); got != 2 {
				t.Fatalf("%d jobs admitted, want 2", got)
			}

			sys.Sched.PlaceIfChanged()
			if got := len(short.jm.TaskPlacedAt); got != 1 {
				t.Fatalf("short job: %d tasks placed by the event pass, want 1", got)
			}
			for i, j := range queued {
				if j.priority != sentinel(i) {
					t.Fatalf("queued job %d: priority %v after a placement pass, want it untouched at %v",
						i, j.priority, sentinel(i))
				}
			}

			task := short.Plan.Stages[0].Tasks[0]
			for short.State != JobFinished {
				ran := false
				for _, m := range exec.take() {
					if m.mt.Task == task {
						m.complete(1e-5)
						ran = true
					} else {
						exec.held = append(exec.held, m)
					}
				}
				if !ran {
					t.Fatal("the short job has no monotask running")
				}
				loop.RunUntil(loop.Now())
			}
			want := 0 // EJF: the head of the queue
			if policy == SRJF {
				want = smallest
			}
			for i, j := range queued {
				if admitted := j.State == JobAdmitted; admitted != (i == want) {
					t.Errorf("queued job %d admitted=%v, want %v (the %v pick is job %d)",
						i, admitted, i == want, policy, want)
				}
			}
		})
	}
}

// TestNoPlacementPassWithoutChange: control-loop traffic that changes nothing
// placeable — heartbeats, status queries, probes — runs zero passes, and so
// does an idle loop.
func TestNoPlacementPassWithoutChange(t *testing.T) {
	// SchedInterval is an hour: no tick fires within the test.
	h := newLiveHarness(t, 3600*eventloop.Second)
	for i := 0; i < 1000; i++ {
		h.drv.Send(func() {})
	}
	if ev, tm := h.passes(); ev != 0 || tm != 0 {
		t.Fatalf("1000 no-op sends on an idle system: %d event / %d timer passes, want 0 / 0", ev, tm)
	}

	// The same with work in flight and nothing pending: the pass that placed
	// the job reset the bit, and no-op traffic does not set it.
	h.onLoop(func() { h.sys.MustSubmit(cpuJob(2, 1e6), h.sys.Loop.Now()) })
	for i := 0; i < 1000; i++ {
		h.drv.Send(func() {})
	}
	if ev, tm := h.passes(); ev != 1 || tm != 0 {
		t.Fatalf("1000 no-op sends beside a running job: %d event / %d timer passes, want 1 / 0", ev, tm)
	}
}

// TestFallbackTickPlacesWhatEventPassCouldNot: a task that no worker can
// host at event time stays in the pool, and the periodic tick places it once
// time alone has made it placeable — here the measured CPU rate relaxing back
// to nominal over idle rate windows, which lowers APT below EPT with no
// completion or submission to set the changed bit.
//
// The test plays the driver on a virtual clock: it advances the loop and
// calls PlaceIfChanged where a batch would end, so every instant is exact.
func TestFallbackTickPlacesWhatEventPassCouldNot(t *testing.T) {
	loop := eventloop.New()
	clus := cluster.New(loop, cluster.Config{
		Machines: 2, CoresPerMachine: 1, MemPerMachine: 8 * resource.GB,
		NetBandwidth: 1e9, DiskBandwidth: 2e8, CoreRate: 1e8,
	})
	const window = 10 * eventloop.Millisecond
	// EPT defaults to 3 ms: a 1-core worker at the nominal 1e8 B/s is loaded
	// past it by more than 3e5 queued bytes.
	sys := NewSystem(loop, clus, Config{SchedInterval: eventloop.Millisecond, RateWindow: window})
	exec := &heldExecutor{}
	sys.SetExecutor(exec)
	batchEnd := func(until eventloop.Time) {
		loop.RunUntil(until)
		sys.Sched.PlaceIfChanged()
	}

	// Job A: four 2.5e5-byte tasks, two per worker — one runs, one queues.
	// It is ten intervals of one core's work, so the first tick places it.
	const tick = eventloop.Time(eventloop.Millisecond)
	a := sys.MustSubmit(cpuJob(4, 2.5e5), 0)
	batchEnd(0)
	if len(a.jm.TaskPlacedAt) != 0 {
		t.Fatal("job A placed by an event pass: it is longer than an interval")
	}
	batchEnd(tick)
	first := exec.take()
	if len(a.jm.TaskPlacedAt) != 4 || len(first) != 2 {
		t.Fatalf("job A: %d tasks placed, %d running; want 4 and 2", len(a.jm.TaskPlacedAt), len(first))
	}
	// The running monotask on each worker reports a very slow execution and
	// the queued one takes its core. One window later the slow sample is
	// blended in: the rate halves, and the 2.5e5 bytes still assigned are
	// 5 ms of work against the 3 ms EPT.
	for _, m := range first {
		m.complete(1.0)
	}
	batchEnd(tick)
	at := eventloop.Time(window)
	batchEnd(at)
	for _, w := range sys.Workers {
		if apt := w.APT(resource.CPU); apt <= sys.Cfg.EPT.Seconds() {
			t.Fatalf("worker %d: APT %.4fs, want above EPT %.4fs", w.ID, apt, sys.Cfg.EPT.Seconds())
		}
	}

	// Job B becomes ready now. The event pass runs and can place nothing.
	evBefore, _ := sys.Sched.PlacementPasses()
	b := sys.MustSubmit(cpuJob(1, 1e3), at)
	batchEnd(at)
	ev, tmBefore := sys.Sched.PlacementPasses()
	if ev != evBefore+1 {
		t.Fatalf("%d event passes for job B's submission, want 1", ev-evBefore)
	}
	if len(b.jm.TaskPlacedAt) != 0 {
		t.Fatal("job B placed at event time on workers loaded past EPT")
	}

	// No event from here on. Two idle windows later the rate has relaxed to
	// 0.875 of nominal, APT is 2.86 ms, and the next tick places B.
	loop.RunUntil(at + 3*eventloop.Time(window))
	ev2, tm := sys.Sched.PlacementPasses()
	if len(b.jm.TaskPlacedAt) != 1 {
		t.Fatal("job B still unplaced after the load estimate drained: the fallback tick lost it")
	}
	for _, placed := range b.jm.TaskPlacedAt {
		if want := at + 2*eventloop.Time(window); placed != want {
			t.Errorf("job B placed at %v, want the first tick at %v", placed, want)
		}
	}
	if ev2 != ev || tm <= tmBefore {
		t.Errorf("passes moved by %d event / %d timer, want 0 event and some timer", ev2-ev, tm-tmBefore)
	}
}

// TestSimulationRunsNoEventPasses: a SimDriver has no batch boundary and no
// hook, so a simulated run places on the SchedInterval tick only.
func TestSimulationRunsNoEventPasses(t *testing.T) {
	loop, clus := testCluster(4)
	sys := NewSystem(loop, clus, Config{})
	submitN(t, sys, 5, eventloop.Second)
	eventloop.NewSimDriver(loop).Run()
	if !sys.AllDone() {
		t.Fatal("jobs did not complete")
	}
	ev, tm := sys.Sched.PlacementPasses()
	if ev != 0 || tm == 0 {
		t.Fatalf("simulated run: %d event / %d timer passes, want 0 event and some timer", ev, tm)
	}
}

// TestLivePlacementMatchesFullRebuild is the live-path check of the carried
// worker snapshots, which the simulated equivalence suites cannot give: under
// a LiveDriver, on the wall clock, with event passes between the ticks, every
// placement pass of a multi-job run (a worker failure, a graceful drain, a
// profiled join and a re-profiling included) must place exactly what
// FullRebuildPlacer places over the same interval. CheckingPlacer compares
// the two on every pass. The wall clock decides only which passes happen and
// when rate windows roll, never what the two placers are asked.
func TestLivePlacementMatchesFullRebuild(t *testing.T) {
	chk := &CheckingPlacer{}
	h := newLiveHarnessOn(t, cluster.Config{
		Machines: 4, CoresPerMachine: 2, MemPerMachine: 8 * resource.GB,
		NetBandwidth: 1e9, DiskBandwidth: 2e8, CoreRate: 1e8, NetPerFlowFraction: 0.75,
	}, Config{
		SchedInterval: eventloop.Millisecond,
		RateWindow:    2 * eventloop.Millisecond, // windows roll during the run
		Placer:        chk,
	})
	submit := func(n int) {
		for i := 0; i < n; i++ {
			spec := JobSpec{Name: "job", Graph: shuffleJob(8, 4, 8e6), MemEstimate: 1e9}
			h.sys.MustSubmit(spec, h.sys.Loop.Now())
		}
	}
	// step completes, in one batch, every monotask the executor holds, at a
	// measured rate that differs per worker so the monitors leave nominal. It
	// also counts the workers the last pass did not re-read.
	skipped := 0
	step := func(also func()) (completed int, done bool) {
		h.onLoop(func() {
			for _, fresh := range h.sys.Sched.pctx.refreshed {
				if !fresh {
					skipped++
				}
			}
			held := h.exec.take()
			completed = len(held)
			for _, m := range held {
				m.complete(1e-6 + m.mt.InputBytes/(1e8/float64(1+m.w.ID%3)))
			}
			if also != nil {
				also()
			}
			done = h.sys.AllDone()
		})
		return
	}
	runUntilDone := func(events map[int]func()) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for n := 0; ; {
			completed, done := step(events[n])
			delete(events, n)
			if done {
				return
			}
			if completed > 0 {
				n++
			} else {
				time.Sleep(100 * time.Microsecond) // the tick is due
			}
			if time.Now().After(deadline) {
				t.Fatalf("run stuck after %d steps", n)
			}
		}
	}

	h.onLoop(func() { submit(4) })
	var joined *Worker
	runUntilDone(map[int]func(){
		1: func() { h.sys.FailWorker(1) },
		2: func() { submit(2) },
		3: func() { h.sys.BeginDrain(2) },
		4: func() {
			joined = h.sys.AddWorkerProfile(cluster.MachineProfile{Cores: 4, CoreRate: 5e7})
			submit(2)
		},
	})
	if joined == nil || len(h.sys.Workers) != 5 {
		t.Fatal("the run finished before the scripted events happened; make the jobs longer")
	}
	// Everything is idle. Two one-task jobs, one after the other, leave the
	// context holding snapshots of workers that nothing has touched since:
	// only markDirty makes the next pass see that worker 3 was re-declared
	// and that the joined worker is draining.
	for i := 0; i < 2; i++ {
		h.onLoop(func() { h.sys.MustSubmit(cpuJob(1, 1e5), h.sys.Loop.Now()) })
		runUntilDone(nil)
	}
	h.onLoop(func() {
		h.sys.SetWorkerProfile(3, cluster.MachineProfile{Cores: 8, Mem: 4 * resource.GB})
		h.sys.BeginDrain(joined.ID)
		submit(3)
	})
	runUntilDone(nil)

	h.onLoop(func() {
		if chk.Diffs != 0 {
			t.Errorf("%d of %d live placement passes differ from the full rebuild; first: %s",
				chk.Diffs, chk.Passes, chk.FirstDiff)
		}
		if chk.Passes < 10 {
			t.Errorf("only %d placement passes compared", chk.Passes)
		}
		if skipped == 0 {
			t.Error("every sampled pass re-read every worker: carried snapshots never exercised")
		}
	})
}
