package core

import (
	"math"
	"strings"
	"testing"

	"ursa/internal/cluster"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

func testCluster(machines int) (*eventloop.Loop, *cluster.Cluster) {
	loop := eventloop.New()
	cfg := cluster.Config{
		Machines:           machines,
		CoresPerMachine:    4,
		MemPerMachine:      8 * resource.GB,
		NetBandwidth:       1e9,
		DiskBandwidth:      2e8,
		CoreRate:           1e8,
		NetPerFlowFraction: 0.75,
	}
	return loop, cluster.New(loop, cfg)
}

// shuffleJob builds a two-stage map/shuffle/reduce job over the given input
// bytes.
func shuffleJob(mapP, redP int, totalInput float64) *dag.Graph {
	g := dag.NewGraph()
	input := g.CreateData(mapP)
	input.SetUniformInput(totalInput)
	msg := g.CreateData(mapP)
	shuffled := g.CreateData(redP)
	result := g.CreateData(redP)
	mapOp := g.CreateOp(resource.CPU, "map").Read(input).Create(msg)
	mapOp.OutputRatio = 0.5
	sh := g.CreateOp(resource.Net, "shuffle").Read(msg).Create(shuffled)
	red := g.CreateOp(resource.CPU, "reduce").Read(shuffled).Create(result)
	red.OutputRatio = 0.1
	mapOp.To(sh, dag.Sync)
	sh.To(red, dag.Async)
	return g
}

func submitN(t *testing.T, sys *System, n int, interval eventloop.Duration) []*Job {
	t.Helper()
	var jobs []*Job
	for i := 0; i < n; i++ {
		spec := JobSpec{
			Name:        "job",
			Graph:       shuffleJob(8, 4, 800e6),
			MemEstimate: 2e9,
		}
		j, err := sys.Submit(spec, eventloop.Time(eventloop.Duration(i)*interval))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func TestSingleJobRunsToCompletion(t *testing.T) {
	loop, clus := testCluster(2)
	sys := NewSystem(loop, clus, Config{})
	jobs := submitN(t, sys, 1, 0)
	loop.Run()
	if !sys.AllDone() {
		t.Fatal("job did not complete")
	}
	j := jobs[0]
	if j.State != JobFinished {
		t.Fatalf("job state = %v", j.State)
	}
	if j.JCT() <= 0 {
		t.Errorf("JCT = %v, want > 0", j.JCT())
	}
	// 800 MB input at 8 cores × 1e8 B/s plus shuffle: JCT should be a few
	// seconds, well under a minute.
	if j.JCT() > 60*eventloop.Second {
		t.Errorf("JCT = %v, unexpectedly large", j.JCT().Seconds())
	}
	// All memory and cores returned.
	for _, m := range clus.Machines {
		if m.Cores.Allocated() != 0 {
			t.Errorf("machine %d has %v cores still allocated", m.ID, m.Cores.Allocated())
		}
		if m.Mem.Allocated() != 0 {
			t.Errorf("machine %d has %v mem still allocated", m.ID, m.Mem.Allocated())
		}
	}
	// CPU was actually used.
	snap := clus.Snap()
	if snap.CoreUsedSeconds <= 0 {
		t.Error("no CPU usage recorded")
	}
	// UE: used ≈ allocated minus dispatch overhead.
	ue := snap.CoreUsedSeconds / snap.CoreAllocSeconds
	if ue < 0.9 || ue > 1.0 {
		t.Errorf("CPU UE = %v, want ~0.99", ue)
	}
	if snap.NetBytesReceived <= 0 {
		t.Error("no network transfer recorded")
	}
}

func TestManyJobsAllFinish(t *testing.T) {
	loop, clus := testCluster(4)
	sys := NewSystem(loop, clus, Config{})
	jobs := submitN(t, sys, 10, eventloop.Second)
	loop.Run()
	if !sys.AllDone() {
		t.Fatalf("only %d/%d jobs done", sys.done, len(jobs))
	}
	for _, j := range jobs {
		if j.Finished <= j.Submitted {
			t.Errorf("job %d finished %v <= submitted %v", j.ID, j.Finished, j.Submitted)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() eventloop.Time {
		loop, clus := testCluster(3)
		sys := NewSystem(loop, clus, Config{})
		submitN(t, sys, 6, 500*eventloop.Millisecond)
		loop.Run()
		if !sys.AllDone() {
			t.Fatal("jobs incomplete")
		}
		var last eventloop.Time
		for _, j := range sys.Jobs() {
			if j.Finished > last {
				last = j.Finished
			}
		}
		return last
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("non-deterministic makespan: %v vs %v", a, b)
	}
}

func TestEJFOrdersCompletions(t *testing.T) {
	loop, clus := testCluster(1)
	sys := NewSystem(loop, clus, Config{Policy: EJF})
	// Submit 4 identical jobs at once; EJF should finish them roughly in
	// submission order.
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j := sys.MustSubmit(JobSpec{
			Name:        "j",
			Graph:       shuffleJob(4, 2, 400e6),
			MemEstimate: 1e9,
		}, eventloop.Time(i)) // 1µs apart: effectively simultaneous
		jobs = append(jobs, j)
	}
	loop.Run()
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Finished < jobs[i-1].Finished {
			t.Errorf("job %d finished before job %d under EJF", i, i-1)
		}
	}
}

func TestSRJFPrefersSmallJobs(t *testing.T) {
	mkJobs := func(policy Policy) (small, big eventloop.Duration) {
		loop, clus := testCluster(1)
		sys := NewSystem(loop, clus, Config{Policy: policy})
		bigJob := sys.MustSubmit(JobSpec{
			Name: "big", Graph: shuffleJob(8, 4, 3200e6), MemEstimate: 2e9,
		}, 0)
		smallJob := sys.MustSubmit(JobSpec{
			Name: "small", Graph: shuffleJob(4, 2, 100e6), MemEstimate: 1e9,
		}, 1)
		loop.Run()
		return smallJob.JCT(), bigJob.JCT()
	}
	smallSRJF, _ := mkJobs(SRJF)
	smallEJF, _ := mkJobs(EJF)
	if smallSRJF > smallEJF {
		t.Errorf("small job JCT under SRJF (%v) worse than EJF (%v)",
			smallSRJF.Seconds(), smallEJF.Seconds())
	}
}

func TestAdmissionQueuesOnMemoryPressure(t *testing.T) {
	loop, clus := testCluster(1) // 8 GB total
	sys := NewSystem(loop, clus, Config{})
	a := sys.MustSubmit(JobSpec{Name: "a", Graph: shuffleJob(4, 2, 200e6), MemEstimate: 6e9}, 0)
	b := sys.MustSubmit(JobSpec{Name: "b", Graph: shuffleJob(4, 2, 200e6), MemEstimate: 6e9}, 0)
	// At submit time, only one fits under the cluster-wide reservation.
	loop.RunUntil(eventloop.Time(10 * eventloop.Millisecond))
	if a.State != JobAdmitted {
		t.Errorf("job a state = %v, want admitted", a.State)
	}
	if b.State != JobQueued {
		t.Errorf("job b state = %v, want queued while a holds reservation", b.State)
	}
	loop.Run()
	if a.State != JobFinished || b.State != JobFinished {
		t.Fatal("jobs did not finish")
	}
	if b.Admitted < a.Finished {
		t.Errorf("job b admitted at %v before a finished at %v", b.Admitted, a.Finished)
	}
}

func TestMemEstimateClampedToCluster(t *testing.T) {
	loop, clus := testCluster(1)
	sys := NewSystem(loop, clus, Config{})
	j := sys.MustSubmit(JobSpec{
		Name: "huge", Graph: shuffleJob(4, 2, 100e6), MemEstimate: 1e15,
	}, 0)
	loop.Run()
	if j.State != JobFinished {
		t.Fatal("over-estimated job never admitted (deadlock)")
	}
}

func TestSmallMonotaskBypass(t *testing.T) {
	loop, clus := testCluster(1)
	sys := NewSystem(loop, clus, Config{NetConcurrency: 1})
	// A job whose shuffle monotasks are tiny: they must bypass the queue.
	j := sys.MustSubmit(JobSpec{
		Name: "tiny", Graph: shuffleJob(4, 4, 8e3), MemEstimate: 1e8,
	}, 0)
	loop.Run()
	if j.State != JobFinished {
		t.Fatal("tiny job did not finish")
	}
	if j.JCT() > 2*eventloop.Second {
		t.Errorf("tiny job JCT = %v, want sub-second-ish with bypass", j.JCT().Seconds())
	}
}

func TestWorkerLoadDrainsToZero(t *testing.T) {
	loop, clus := testCluster(2)
	sys := NewSystem(loop, clus, Config{})
	submitN(t, sys, 3, eventloop.Second)
	loop.Run()
	for _, w := range sys.Workers {
		for _, k := range resource.MonotaskKinds {
			if got := w.Load(k); math.Abs(got) > 1 {
				t.Errorf("worker %d load[%v] = %v after drain, want 0", w.ID, k, got)
			}
			if w.QueueLen(k) != 0 {
				t.Errorf("worker %d queue[%v] nonempty after drain", w.ID, k)
			}
		}
	}
}

func TestStageAwareVsGreedyBothComplete(t *testing.T) {
	for _, disable := range []bool{false, true} {
		loop, clus := testCluster(2)
		sys := NewSystem(loop, clus, Config{DisableStageAware: disable})
		submitN(t, sys, 4, eventloop.Second)
		loop.Run()
		if !sys.AllDone() {
			t.Errorf("DisableStageAware=%v: jobs incomplete", disable)
		}
	}
}

func TestIgnoreNetworkDemandCompletes(t *testing.T) {
	loop, clus := testCluster(2)
	sys := NewSystem(loop, clus, Config{IgnoreNetworkDemand: true})
	submitN(t, sys, 4, eventloop.Second)
	loop.Run()
	if !sys.AllDone() {
		t.Error("jobs incomplete with network demand ignored")
	}
}

func TestOrderingAblationsComplete(t *testing.T) {
	cases := []Config{
		{DisableJobOrdering: true},
		{DisableMonotaskOrdering: true},
		{DisableJobOrdering: true, DisableMonotaskOrdering: true},
		{Policy: SRJF, DisableJobOrdering: true},
		{Policy: SRJF, DisableMonotaskOrdering: true},
	}
	for i, cfg := range cases {
		loop, clus := testCluster(2)
		sys := NewSystem(loop, clus, cfg)
		submitN(t, sys, 4, 500*eventloop.Millisecond)
		loop.Run()
		if !sys.AllDone() {
			t.Errorf("case %d: jobs incomplete", i)
		}
	}
}

func TestUtilizationConservation(t *testing.T) {
	loop, clus := testCluster(2)
	sys := NewSystem(loop, clus, Config{})
	submitN(t, sys, 5, eventloop.Second)
	loop.Run()
	snap := clus.Snap()
	// Used core-seconds must equal total CPU work / core rate.
	var wantWork float64
	for _, j := range sys.Jobs() {
		for _, mt := range j.Plan.Monotasks {
			if mt.Kind == resource.CPU {
				wantWork += mt.CPUWork
			}
		}
	}
	wantSeconds := wantWork / 1e8
	if math.Abs(snap.CoreUsedSeconds-wantSeconds) > wantSeconds*0.01+0.1 {
		t.Errorf("CoreUsedSeconds = %v, want %v", snap.CoreUsedSeconds, wantSeconds)
	}
	// Network bytes received must equal total network monotask input.
	var wantNet float64
	for _, j := range sys.Jobs() {
		for _, mt := range j.Plan.Monotasks {
			if mt.Kind == resource.Net {
				wantNet += mt.InputBytes
			}
		}
	}
	if math.Abs(snap.NetBytesReceived-wantNet) > wantNet*0.01+1000 {
		t.Errorf("NetBytesReceived = %v, want %v", snap.NetBytesReceived, wantNet)
	}
}

// TestCheckQuiesced: a system that ran its jobs to the end is quiesced, and
// each violation, built directly on a fresh system, is the one named.
func TestCheckQuiesced(t *testing.T) {
	loop, clus := testCluster(2)
	sys := NewSystem(loop, clus, Config{})
	sys.MustSubmit(JobSpec{Name: "a", Graph: shuffleJob(4, 2, 200e6), MemEstimate: 6e9}, 0)
	sys.MustSubmit(JobSpec{Name: "b", Graph: shuffleJob(4, 2, 200e6), Tenant: "t"}, 0)
	loop.Run()
	if err := sys.CheckQuiesced(); err != nil {
		t.Fatalf("after a finished run: %v", err)
	}

	for _, tc := range []struct {
		name, want string
		breakIt    func(*System)
	}{
		{"scheduler reservation", "scheduler still reserves", func(s *System) { s.Sched.reservedMem = 1 }},
		{"tenant reservation", `tenant "t" still reserves`, func(s *System) { s.Sched.tenantFor("t").reserved = 1 }},
		{"monotask in flight", "worker 1 not empty (idle=false", func(s *System) { s.Workers[1].active[&dag.Monotask{}] = func() {} }},
		{"memory held", "worker 0 not empty", func(s *System) { s.Workers[0].Machine.Mem.MustAlloc(1e6) }},
		{"cores held", "worker 1 not empty", func(s *System) { s.Workers[1].Machine.Cores.MustAlloc(1) }},
		{"job not done", "1 of 1 jobs not done", func(s *System) { s.MustSubmit(JobSpec{Name: "c", Graph: shuffleJob(2, 1, 1e6)}, 0) }},
		{"job queued", "1 jobs still queued", func(s *System) { s.Sched.nqueued = 1 }},
	} {
		loop, clus := testCluster(2)
		s := NewSystem(loop, clus, Config{})
		if err := s.CheckQuiesced(); err != nil {
			t.Fatalf("%s: fresh system: %v", tc.name, err)
		}
		tc.breakIt(s)
		if err := s.CheckQuiesced(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckQuiesced = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
