package workload

import (
	"testing"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/metrics"
)

func paperCluster() (*eventloop.Loop, *cluster.Cluster) {
	loop := eventloop.New()
	return loop, cluster.New(loop, cluster.Default20x32())
}

// runSolo executes one job alone on the paper's cluster and returns its JCT
// in seconds.
func runSolo(t *testing.T, spec core.JobSpec) float64 {
	t.Helper()
	loop, clus := paperCluster()
	sys := core.NewSystem(loop, clus, core.Config{})
	j, err := sys.Submit(spec, 0)
	if err != nil {
		t.Fatalf("submit %s: %v", spec.Name, err)
	}
	loop.Run()
	if j.State != core.JobFinished {
		t.Fatalf("job %s did not finish", spec.Name)
	}
	return j.JCT().Seconds()
}

func TestTPCHSoloJCTsMatchPaperBand(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	var total float64
	var min, max float64
	for i, tpl := range tpchTemplates {
		spec, err := Query(tpl.name, 200e9, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		jct := runSolo(t, spec)
		t.Logf("%-4s depth=%d solo JCT = %.1fs", tpl.name, tpl.depth, jct)
		total += jct
		if i == 0 || jct < min {
			min = jct
		}
		if jct > max {
			max = jct
		}
	}
	mean := total / float64(len(tpchTemplates))
	t.Logf("solo JCT: min=%.1f mean=%.1f max=%.1f", min, mean, max)
	// Paper: 3-297 s, mean 37.8 s (over the full scale mix; 200 GB solo
	// runs should sit in the lower half of the band).
	if min < 1 || max > 400 {
		t.Errorf("solo JCT range [%.1f, %.1f] outside plausible band", min, max)
	}
	if mean < 10 || mean > 120 {
		t.Errorf("solo JCT mean %.1f outside plausible band", mean)
	}
}

func TestTPCHWorkloadShape(t *testing.T) {
	w := TPCH(50, 5*eventloop.Second, 42)
	if len(w.Jobs) != 50 {
		t.Fatalf("jobs = %d", len(w.Jobs))
	}
	for i, s := range w.Jobs {
		if s.At != eventloop.Time(eventloop.Duration(i)*5*eventloop.Second) {
			t.Errorf("job %d at %v", i, s.At)
		}
		if err := s.Spec.Graph.Validate(); err != nil {
			t.Errorf("job %d invalid: %v", i, err)
		}
	}
}

func TestTPCDSDepthDistribution(t *testing.T) {
	w := TPCDS(200, eventloop.Second, 7)
	var sum, min, max float64
	for i, s := range w.Jobs {
		d := float64(s.Spec.Graph.Depth())
		sum += d
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	mean := sum / float64(len(w.Jobs))
	t.Logf("TPC-DS op-graph depth: min=%v mean=%.1f max=%v", min, mean, max)
	// Op-graph depth ≈ 2×stage depth (CPU+shuffle per stage); the paper's
	// stage depth is 5-43 with mean 9.
	if min < 10 || mean < 14 || mean > 26 {
		t.Errorf("depth distribution off: min=%v mean=%.1f", min, mean)
	}
}

func TestMixedComposition(t *testing.T) {
	w := Mixed(3)
	if len(w.Jobs) != 38 {
		t.Fatalf("jobs = %d, want 38 (32 SQL + 4 ML + 2 graph)", len(w.Jobs))
	}
	counts := map[string]int{}
	for _, s := range w.Jobs {
		switch {
		case len(s.Spec.Name) >= 2 && s.Spec.Name[0] == 'q':
			counts["sql"]++
		case s.Spec.Name[:2] == "lr" || s.Spec.Name[:2] == "km":
			counts["ml"]++
		default:
			counts["graph"]++
		}
	}
	if counts["sql"] != 32 || counts["ml"] != 4 || counts["graph"] != 2 {
		t.Errorf("composition = %v", counts)
	}
}

func TestSyntheticSoloJCT(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	jct1 := runSolo(t, Type1().Spec("type1"))
	jct2 := runSolo(t, Type2().Spec("type2"))
	t.Logf("synthetic solo JCT: type1=%.1fs type2=%.1fs", jct1, jct2)
	// Paper: 40 s and 22 s; keep the 2:1 ratio and the order of magnitude.
	if jct1 < 20 || jct1 > 80 {
		t.Errorf("type1 JCT = %.1f, want ~40", jct1)
	}
	ratio := jct1 / jct2
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("type1/type2 JCT ratio = %.2f, want ~1.8-2", ratio)
	}
}

func TestIterativeJobAlternates(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	loop, clus := paperCluster()
	sys := core.NewSystem(loop, clus, core.Config{})
	sampler := metrics.NewSampler(loop, metrics.ClusterSource(clus), 500*eventloop.Millisecond)
	spec := LR(20e9, 20).Spec()
	j := sys.MustSubmit(spec, 0)
	sys.OnJobFinished = func(*core.Job) { sampler.Stop() }
	loop.Run()
	if j.State != core.JobFinished {
		t.Fatal("LR did not finish")
	}
	t.Logf("LR solo JCT = %.1fs", j.JCT().Seconds())
	cpu := sampler.Cluster.Series[metrics.SeriesCPU]
	if len(cpu) < 10 {
		t.Fatalf("too few samples: %d", len(cpu))
	}
	// The Figure 1a/1b pattern: CPU alternates between busy bursts and
	// communication valleys. LR's sparse compute peaks well below full
	// cluster utilization (312 of 640 cores at low intensity).
	var hi, lo int
	for _, v := range cpu {
		if v > 15 {
			hi++
		}
		if v < 8 {
			lo++
		}
	}
	if hi == 0 || lo == 0 {
		t.Errorf("no CPU alternation: hi=%d lo=%d of %d samples", hi, lo, len(cpu))
	}
	t.Logf("cpu sparkline: %s", sampler.Cluster.Sparkline(metrics.SeriesCPU, 60))
	t.Logf("net sparkline: %s", sampler.Cluster.Sparkline(metrics.SeriesNet, 60))
}

func TestSmallTPCHMixRunsOnUrsa(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	loop, clus := paperCluster()
	sys := core.NewSystem(loop, clus, core.Config{})
	w := TPCH(10, 5*eventloop.Second, 11)
	for _, s := range w.Jobs {
		sys.MustSubmit(s.Spec, s.At)
	}
	loop.Run()
	if !sys.AllDone() {
		t.Fatal("workload incomplete")
	}
	var jobs []metrics.JobTimes
	for _, j := range sys.Jobs() {
		jobs = append(jobs, metrics.JobTimes{Submitted: j.Submitted, Finished: j.Finished})
	}
	t.Logf("10-job TPC-H: makespan=%.1fs avgJCT=%.1fs",
		metrics.Makespan(jobs), metrics.AvgJCT(jobs))
}

func TestExpectedJCTs(t *testing.T) {
	solo := map[int]float64{1: 40, 2: 22}
	stage := map[int]float64{1: 8, 2: 4.4}
	types := []int{1, 1, 1, 1}
	got := ExpectedJCTs(types, solo, stage)
	want := []float64{40, 48, 80, 88}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("expected JCT[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	types2 := []int{1, 2, 1, 2}
	got2 := ExpectedJCTs(types2, solo, stage)
	want2 := []float64{40, 44.4, 80, 84.4}
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Errorf("setting2 expected JCT[%d] = %v, want %v", i, got2[i], want2[i])
		}
	}
}
