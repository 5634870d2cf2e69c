package core

import (
	"testing"

	"ursa/internal/cluster"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/resource"
)

// heteroTestCluster builds a mixed-capacity cluster: `fast` machines at the
// testCluster shape and `slow` machines with half the cores, half the
// memory, a slower declared core rate and (optionally) hidden contention.
func heteroTestCluster(fast, slow int, contention float64) (*eventloop.Loop, *cluster.Cluster) {
	loop := eventloop.New()
	cfg := cluster.Config{
		CoresPerMachine:    4,
		MemPerMachine:      8 * resource.GB,
		NetBandwidth:       1e9,
		DiskBandwidth:      2e8,
		CoreRate:           1e8,
		NetPerFlowFraction: 0.75,
		Profiles: []cluster.MachineProfile{
			{Count: fast},
			{
				Count:      slow,
				Cores:      2,
				Mem:        4 * resource.GB,
				CoreRate:   5e7,
				Contention: contention,
			},
		},
	}
	return loop, cluster.New(loop, cfg)
}

// TestProfilesBuildHeterogeneousCluster pins the MachineProfile expansion:
// counts, per-machine capacities, cluster totals, and the nominal-vs-
// effective core rate split that models hidden contention.
func TestProfilesBuildHeterogeneousCluster(t *testing.T) {
	_, clus := heteroTestCluster(3, 2, 0.5)
	if got := len(clus.Machines); got != 5 {
		t.Fatalf("machines = %d, want 5", got)
	}
	if got := clus.Cfg.Machines; got != 5 {
		t.Errorf("Cfg.Machines = %d, want 5", got)
	}
	if got := clus.TotalCores(); got != 3*4+2*2 {
		t.Errorf("TotalCores = %v, want 16", got)
	}
	if got := clus.TotalMem(); got != float64(3*8*resource.GB+2*4*resource.GB) {
		t.Errorf("TotalMem = %v", got)
	}
	fastM, slowM := clus.Machines[0], clus.Machines[4]
	if fastM.CoreRate() != 1e8 || fastM.NominalCoreRate() != 1e8 {
		t.Errorf("fast machine rates = %v/%v, want 1e8/1e8", fastM.CoreRate(), fastM.NominalCoreRate())
	}
	// Contended machine: declares 5e7, delivers 2.5e7.
	if slowM.NominalCoreRate() != 5e7 {
		t.Errorf("slow nominal rate = %v, want 5e7", slowM.NominalCoreRate())
	}
	if slowM.CoreRate() != 2.5e7 {
		t.Errorf("slow effective rate = %v, want 2.5e7", slowM.CoreRate())
	}
	if slowM.Cores.Capacity() != 2 || slowM.Mem.Capacity() != float64(4*resource.GB) {
		t.Errorf("slow capacities = %v cores, %v mem", slowM.Cores.Capacity(), slowM.Mem.Capacity())
	}
	// Inherited fields come from the uniform config.
	if slowM.NetBandwidth() != 1e9 || slowM.DiskBandwidth() != 2e8 {
		t.Errorf("slow bandwidths = %v/%v, want inherited 1e9/2e8", slowM.NetBandwidth(), slowM.DiskBandwidth())
	}
}

// TestAPTStalledRateSaturates is the satellite-1 regression: a worker whose
// measured rate collapsed to zero with work still assigned must report full
// occupancy (APT = EPT, D_r = 0), not zero load (D_r = 1) — the old
// behavior piled more work onto a stalled machine.
func TestAPTStalledRateSaturates(t *testing.T) {
	loop, clus := testCluster(1)
	sys := NewSystem(loop, clus, Config{})
	w := sys.Workers[0]
	w.load[resource.Disk] = 1e9
	w.rates[resource.Disk].current = 0 // stalled monitor
	want := sys.Cfg.EPT.Seconds()
	if got := w.APT(resource.Disk); got != want {
		t.Errorf("stalled APT = %v, want EPT %v", got, want)
	}
	// No load → no occupancy, regardless of the rate.
	w.load[resource.Disk] = 0
	if got := w.APT(resource.Disk); got != 0 {
		t.Errorf("idle stalled APT = %v, want 0", got)
	}
}

// TestRateMonitorDecay is the satellite-3 table: empty windows decay the
// estimate one 0.5-step per window toward the nominal rate, sample batches
// blend once per window they arrived in, and the trajectory is a function
// of virtual time alone — bitwise independent of read frequency.
func TestRateMonitorDecay(t *testing.T) {
	const win = eventloop.Second
	type event struct {
		at             eventloop.Time // when the sample lands (before reads)
		bytes, seconds float64
	}
	cases := []struct {
		name    string
		initial float64
		events  []event
		readAt  eventloop.Time
		want    float64
	}{
		{
			name:    "no samples, no drift: stays nominal",
			initial: 100,
			readAt:  eventloop.Time(10 * win),
			want:    100,
		},
		{
			name:    "single blend at first boundary",
			initial: 100,
			events:  []event{{0, 500, 10}},
			readAt:  eventloop.Time(win),
			want:    75,
		},
		{
			name:    "one idle window decays halfway back",
			initial: 100,
			events:  []event{{0, 500, 10}},
			readAt:  eventloop.Time(2 * win),
			want:    87.5,
		},
		{
			name:    "two idle windows decay further",
			initial: 100,
			events:  []event{{0, 500, 10}},
			readAt:  eventloop.Time(3 * win),
			want:    93.75,
		},
		{
			name:    "long gap converges exactly to nominal",
			initial: 100,
			events:  []event{{0, 500, 10}},
			readAt:  eventloop.Time(100 * win),
			want:    100,
		},
		{
			name:    "a late sample decays exactly to nominal after a long idle gap",
			initial: 100,
			events:  []event{{eventloop.Time(49 * win), 500, 10}},
			readAt:  eventloop.Time(150 * win),
			want:    100,
		},
		{
			name:    "multi-window batch blends once then decays",
			initial: 100,
			// Sample in window 0; windows 1 and 2 empty.
			// 75 → 87.5 → 93.75.
			events: []event{{eventloop.Time(win / 2), 500, 10}},
			readAt: eventloop.Time(3 * win),
			want:   93.75,
		},
		{
			name:    "samples in consecutive windows blend per window",
			initial: 100,
			// 0.5·100+0.5·50 = 75, then 0.5·75+0.5·50 = 62.5.
			events: []event{{0, 500, 10}, {eventloop.Time(win), 500, 10}},
			readAt: eventloop.Time(2 * win),
			want:   62.5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(reads []eventloop.Time) float64 {
				loop := eventloop.New()
				rm := newRateMonitor(loop, tc.initial, win)
				for _, ev := range tc.events {
					loop.RunUntil(ev.at)
					rm.sample(ev.bytes, ev.seconds)
				}
				var got float64
				for _, at := range reads {
					loop.RunUntil(at)
					got = rm.rate()
				}
				return got
			}
			got := run([]eventloop.Time{tc.readAt})
			if got != tc.want {
				t.Fatalf("rate = %v, want %v", got, tc.want)
			}
			// Read-frequency independence: polling every half window must
			// produce the bitwise-identical final value: rates are read on
			// several schedules, and none may change them.
			var polls []eventloop.Time
			for at := eventloop.Time(0); at < tc.readAt; at += eventloop.Time(win / 2) {
				polls = append(polls, at)
			}
			polls = append(polls, tc.readAt)
			if polled := run(polls); polled != got {
				t.Errorf("polled rate = %v, one-shot read = %v (read frequency changed the value)", polled, got)
			}
		})
	}
}

// TestScoreTaskViabilityGate is the satellite-2 regression: scoreTask must
// reject failed and draining workers outright, and a task whose estimates
// are all zero must not land on a worker with no headroom on any dimension.
func TestScoreTaskViabilityGate(t *testing.T) {
	loop, clus := testCluster(3)
	sys := NewSystem(loop, clus, Config{})
	sys.FailWorker(0)
	sys.BeginDrain(1)
	ctx := &PlaceContext{Now: loop.Now(), Cfg: &sys.Cfg, Workers: sys.Workers}
	ctx.prepare()
	d := ctx.computeD()

	zeroTask := &dag.Task{Worker: -1} // estimates all zero
	var cpuTask dag.Task
	cpuTask.Worker = -1
	cpuTask.EstUsage[resource.CPU] = 1e6

	for wi, label := range map[int]string{0: "failed", 1: "draining"} {
		if _, ok := scoreTask(ctx, zeroTask, wi, &d[wi]); ok {
			t.Errorf("zero-estimate task scored ok on %s worker", label)
		}
		if _, ok := scoreTask(ctx, &cpuTask, wi, &d[wi]); ok {
			t.Errorf("cpu task scored ok on %s worker", label)
		}
	}
	// Healthy worker with headroom hosts both.
	if _, ok := scoreTask(ctx, zeroTask, 2, &d[2]); !ok {
		t.Error("zero-estimate task rejected on healthy worker with headroom")
	}
	if _, ok := scoreTask(ctx, &cpuTask, 2, &d[2]); !ok {
		t.Error("cpu task rejected on healthy worker with headroom")
	}
	// A healthy but fully saturated worker (headroom zeroed on every
	// dimension) must not absorb zero-estimate tasks.
	if _, ok := scoreTask(ctx, zeroTask, 2, &dVec{}); ok {
		t.Error("zero-estimate task scored ok on zero-headroom worker")
	}
}

// TestSetWorkerProfile verifies the remote-registration path: reprofiling
// an idle worker rebuilds capacities and re-seeds the rate monitors from
// the new nominal rates.
func TestSetWorkerProfile(t *testing.T) {
	loop, clus := testCluster(2)
	sys := NewSystem(loop, clus, Config{})
	sys.SetWorkerProfile(1, cluster.MachineProfile{
		Cores:    8,
		Mem:      16 * resource.GB,
		CoreRate: 2e8,
	})
	w := sys.Workers[1]
	if got := w.Machine.Cores.Capacity(); got != 8 {
		t.Errorf("cores = %v, want 8", got)
	}
	if got := w.MemCapacity(); got != float64(16*resource.GB) {
		t.Errorf("mem = %v, want 16GB", got)
	}
	if got := w.NominalRate(resource.CPU); got != 2e8*8 {
		t.Errorf("nominal CPU rate = %v, want 1.6e9", got)
	}
	if got := w.Rate(resource.CPU); got != 2e8*8 {
		t.Errorf("measured CPU rate = %v, want re-seeded 1.6e9", got)
	}
	// Untouched worker keeps the uniform shape.
	if got := sys.Workers[0].Machine.Cores.Capacity(); got != 4 {
		t.Errorf("worker 0 cores = %v, want 4", got)
	}
}
