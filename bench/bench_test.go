package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMedianMatchesPython(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), the rule
// the acceptance check is written in.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{2, 2, 2, 2}, 2, 2},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spreadShare = %v, want 1", got)
	}
}

func TestJudgeAppliesBound(t *testing.T) {
	steady := func(center float64) []float64 {
		return []float64{center * 0.999, center, center * 1.001, center, center}
	}
	for _, tc := range []struct {
		name       string
		base, cand []float64
		bound      float64
		higher     bool
		want       string
	}{
		{"throughput unchanged", steady(100), steady(100), 0.05, true, verdictOK},
		{"throughput up is fine", steady(100), steady(120), 0.05, true, verdictOK},
		{"throughput down within bound", steady(100), steady(96), 0.05, true, verdictOK},
		{"throughput down past bound", steady(100), steady(94), 0.05, true, verdictWorse},
		{"latency up past bound", steady(20), steady(21.5), 0.05, false, verdictWorse},
		{"latency down is fine", steady(20), steady(10), 0.05, false, verdictOK},
		{"noisy base cannot be judged", []float64{80, 90, 100, 110, 120}, steady(100), 0.05, true, verdictUnresolved},
		{"noisy candidate cannot be judged", steady(100), []float64{80, 90, 100, 110, 120}, 0.05, true, verdictUnresolved},
	} {
		if got, _, _ := judge(tc.base, tc.cand, tc.bound, tc.higher, true); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if got, _, _ := judge([]float64{80, 90, 100, 110, 120}, steady(100), 0.05, true, false); got != verdictOK {
		t.Errorf("spread check off: %s, want ok", got)
	}
	if w := worseBy(100, 90, true); math.Abs(w-0.1) > 1e-12 {
		t.Errorf("worseBy(100, 90, higher) = %v, want 0.1", w)
	}
	if w := worseBy(100, 90, false); math.Abs(w+0.1) > 1e-12 {
		t.Errorf("worseBy(100, 90, lower) = %v, want -0.1", w)
	}
}

func TestCompareFilesVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.05}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	dir := t.TempDir()
	write := func(name string, values ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range values {
			rec := record{Workload: "w", Correct: true, Attempted: 1, Metrics: map[string]float64{"jobs_per_s": v}, Env: map[string]any{}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", 100, 101, 99, 100, 100)
	same := write("same.jsonl", 100, 100, 101, 99, 100)
	slow := write("slow.jsonl", 90, 91, 89, 90, 90)
	var out bytes.Buffer
	if err := compareFiles(&out, spec, a, same); err != nil {
		t.Errorf("equal sets: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, a, slow); err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 10%% slower set passed a 5%% bound:\n%s", out.String())
	}
}

// TestSmokeEveryWorkload runs each workload for about a second with its
// correctness checks on (canary rows against direct execution, simulator
// determinism), and one traced run, so the harness stays runnable. It makes
// no timing assertions.
func TestSmokeEveryWorkload(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	opts := runOpts{seed: 1, seconds: 2, warmup: 200 * time.Millisecond, outDir: t.TempDir(), simJobs: 4, epochs: 2}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			if trace && wl.Name != "slot-hold" && wl.Name != "sim-tpch" {
				continue
			}
			o := opts
			o.trace = trace
			var res *runResult
			if w, ok := liveWorkloads[wl.Name]; ok {
				res, err = runLive(w, o)
			} else {
				res, err = runSim(o)
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", wl.Name, trace, res.failed, res.attempted, res.problems)
			}
			if _, err := pick(spec.EndToEnd, res.values); err != nil {
				t.Errorf("%s trace=%v: %v", wl.Name, trace, err)
			}
			for _, m := range spec.EndToEnd {
				if res.values[m.Name] <= 0 {
					t.Errorf("%s trace=%v: %s = %v, want > 0", wl.Name, trace, m.Name, res.values[m.Name])
				}
			}
			if trace && res.values["client.span_sum_mismatches"] != 0 {
				t.Errorf("%s: client spans do not sum to the JCT", wl.Name)
			}
		}
	}
}
