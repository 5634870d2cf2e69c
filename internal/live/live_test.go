package live

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/dataset"
	"ursa/internal/eventloop"
	"ursa/internal/localrt"
	"ursa/internal/resource"
)

type kv struct {
	K string
	V int
}

func (p kv) ShuffleKey() any { return p.K }

// wordCount builds the canonical map + shuffle + reduce graph.
func wordCount(inParts, outParts int) (*dag.Graph, *dag.Dataset, *dag.Dataset) {
	g := dag.NewGraph()
	lines := g.CreateData(inParts)
	pairs := g.CreateData(inParts)
	shuffled := g.CreateData(outParts)
	counts := g.CreateData(outParts)
	tokenize := g.CreateOp(resource.CPU, "tokenize").Read(lines).Create(pairs)
	tokenize.SetUDF(localrt.UDF(func(in [][]localrt.Row) []localrt.Row {
		agg := map[string]int{}
		for _, row := range in[0] {
			for _, w := range strings.Fields(row.(string)) {
				agg[w]++
			}
		}
		var out []localrt.Row
		for w, c := range agg {
			out = append(out, kv{w, c})
		}
		return out
	}))
	shuffle := g.CreateOp(resource.Net, "shuffle").Read(pairs).Create(shuffled)
	reduce := g.CreateOp(resource.CPU, "reduce").Read(shuffled).Create(counts)
	reduce.SetUDF(localrt.UDF(func(in [][]localrt.Row) []localrt.Row {
		agg := map[string]int{}
		for _, row := range in[0] {
			p := row.(kv)
			agg[p.K] += p.V
		}
		var out []localrt.Row
		for w, c := range agg {
			out = append(out, kv{w, c})
		}
		return out
	}))
	tokenize.To(shuffle, dag.Sync)
	shuffle.To(reduce, dag.Async)
	return g, lines, counts
}

func inputLines(n int) []localrt.Row {
	rows := make([]localrt.Row, n)
	for i := range rows {
		rows[i] = fmt.Sprintf("w%d w%d common tokens", i%13, i%7)
	}
	return rows
}

// submit hands one job over input rows of dataset in to sys.
func submit(sys *System, name string, g *dag.Graph, in *dag.Dataset, rows []localrt.Row) *Job {
	return sys.Submit(Submission{
		Spec: core.JobSpec{Name: name, Graph: g}, Plan: g.MustBuild(),
		Inputs: []localrt.PlanInput{{Dataset: in, Rows: rows}},
	})
}

// stopAfter shuts sys down once n of its jobs have finished: a run ends when
// its owner says so.
func stopAfter(sys *System, n int) {
	finished := 0
	sys.Core.OnJobFinished = func(*core.Job) {
		if finished++; finished == n {
			sys.Shutdown()
		}
	}
}

// checkQuiesced fails t unless sys, whose Run has returned, is quiesced.
func checkQuiesced(t *testing.T, sys *System) {
	t.Helper()
	if err := sys.Core.CheckQuiesced(); err != nil {
		t.Error(err)
	}
}

func sortedKVs(rows []localrt.Row) []kv {
	out := make([]kv, len(rows))
	for i, r := range rows {
		out[i] = r.(kv)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].K != out[j].K {
			return out[i].K < out[j].K
		}
		return out[i].V < out[j].V
	})
	return out
}

// TestSimVsLiveEquivalence is the cross-mode smoke test: the same plan over
// the same input must produce identical result rows whether it is executed
// directly by localrt's pool or scheduled for real through the live Ursa
// control plane. Row order differs (live completion order is wall-clock
// nondeterministic), so rows are compared sorted.
func TestSimVsLiveEquivalence(t *testing.T) {
	input := inputLines(400)

	// (a) Direct local execution, no scheduler.
	g1, in1, out1 := wordCount(6, 4)
	rt := localrt.New(g1.MustBuild())
	rt.SetInput(in1, input)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	direct := sortedKVs(rt.Rows(out1))

	// (b) The identical graph through the live scheduler.
	g2, in2, out2 := wordCount(6, 4)
	sys := NewSystem(Config{Workers: 2})
	j := submit(sys, "wc", g2, in2, input)
	stopAfter(sys, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.Run(ctx); err != nil {
		t.Fatal(err)
	}
	checkQuiesced(t, sys)
	live := sortedKVs(j.Rows(out2))

	if len(direct) != len(live) {
		t.Fatalf("direct has %d rows, live has %d", len(direct), len(live))
	}
	for i := range direct {
		if direct[i] != live[i] {
			t.Fatalf("row %d: direct %v, live %v", i, direct[i], live[i])
		}
	}
	if j.Core.State != core.JobFinished {
		t.Fatalf("job state = %v, want finished", j.Core.State)
	}
	if j.Core.JCT() <= 0 {
		t.Errorf("JCT = %v, want > 0", j.Core.JCT())
	}
}

// TestLiveMultiJobMeasuredRates: several concurrent jobs all complete through
// the shared worker queues, and the workers' rate monitors pick up *measured*
// samples — at least one worker's observed CPU rate departs from the
// configured seed.
//
// A monitor commits its samples when a read finds their window closed, so the
// loop is kept alive for one RateWindow of loop time past the last completion:
// however quickly the jobs ran, the window holding the last sample has ended
// when the rates are read. The assertion is on Deviation, the observed-rate
// average that (unlike Rate) does not decay back to nominal over idle windows,
// so a late shutdown timer cannot undo it either. The test's own
// Core.OnJobFinished sees every job: Run installs no hook of its own.
func TestLiveMultiJobMeasuredRates(t *testing.T) {
	cfg := Config{Workers: 2}
	cfg.Core.RateWindow = 5 * eventloop.Millisecond
	sys := NewSystem(cfg)

	const jobs = 3
	outs := make([]*dag.Dataset, jobs)
	handles := make([]*Job, jobs)
	for i := 0; i < jobs; i++ {
		g, in, out := wordCount(4, 3)
		outs[i], handles[i] = out, submit(sys, fmt.Sprintf("wc-%d", i), g, in, inputLines(3000))
	}
	finished := 0
	sys.Core.OnJobFinished = func(*core.Job) {
		if finished++; finished == jobs {
			sys.Drv.Loop().After(cfg.Core.RateWindow, sys.Shutdown)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sys.Run(ctx); err != nil {
		t.Fatal(err)
	}
	checkQuiesced(t, sys)
	for i, j := range handles {
		total := 0
		for _, r := range j.Rows(outs[i]) {
			total += r.(kv).V
		}
		if total != 3000*4 { // each line is "wX wY common tokens" → 4 words
			t.Errorf("job %d: total count = %d, want %d", i, total, 3000*4)
		}
	}
	moved := false
	for _, w := range sys.Core.Workers {
		if w.Deviation(resource.CPU) != 1 {
			moved = true
		}
	}
	if !moved {
		t.Error("no worker's observed CPU rate departed from the seed — measured samples not fed back")
	}
}

// TestSubmitFromManyGoroutines: Submit is one path before and after Run,
// safe from any goroutine. Jobs submitted concurrently, half before the loop
// starts and half while it runs, all finish with their rows.
func TestSubmitFromManyGoroutines(t *testing.T) {
	const jobs = 8
	sys := NewSystem(Config{Workers: 2})
	stopAfter(sys, jobs)
	outs := make([]*dag.Dataset, jobs)
	handles := make([]*Job, jobs)
	var wg sync.WaitGroup
	submitAll := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g, in, out := wordCount(3, 2)
				outs[i], handles[i] = out, submit(sys, fmt.Sprintf("wc-%d", i), g, in, inputLines(100))
			}()
		}
		wg.Wait()
	}
	submitAll(0, jobs/2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- sys.Run(ctx) }()
	submitAll(jobs/2, jobs)
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	checkQuiesced(t, sys)
	for i, j := range handles {
		total := 0
		for _, r := range j.Rows(outs[i]) {
			total += r.(kv).V
		}
		if total != 100*4 {
			t.Errorf("job %d: total count = %d, want %d", i, total, 100*4)
		}
	}
}

// TestLivePlacesInTheBatchThatMadeReady: on the live path a task is placed
// by an event pass at the end of the control-loop batch that made it ready
// (admission for the first stage, the last upstream completion for the
// second), never by the SchedInterval tick, which is not due before the job
// ends. Every stamp is a loop-clock reading.
func TestLivePlacesInTheBatchThatMadeReady(t *testing.T) {
	cfg := Config{Workers: 2}
	cfg.Core.SchedInterval = 200 * eventloop.Millisecond
	sys := NewSystem(cfg)
	g, in, _ := wordCount(6, 4)
	j := submit(sys, "wc", g, in, inputLines(400))
	stopAfter(sys, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.Run(ctx); err != nil {
		t.Fatal(err)
	}
	checkQuiesced(t, sys)
	stages := j.Core.Plan.Stages
	if len(stages) != 2 {
		t.Fatalf("wordcount has %d stages, want 2", len(stages))
	}
	jm := j.Core.JM()
	ready := j.Core.Admitted
	for _, st := range stages {
		var lastDone eventloop.Time
		for _, task := range st.Tasks {
			placed, ok := jm.TaskPlacedAt[task]
			if !ok {
				t.Fatalf("stage %d: task never placed", st.ID)
			}
			// ready is the stamp of the event; the pass at the end of its
			// batch reads the clock again.
			if placed < ready || placed >= ready+eventloop.Time(eventloop.Millisecond) {
				t.Errorf("stage %d: ready at %v, placed at %v, want within 1ms", st.ID, ready, placed)
			}
			if d := jm.TaskDoneAt[task]; d > lastDone {
				lastDone = d
			}
		}
		ready = lastDone // the Sync edge: stage 2 is ready when all of stage 1 is done
	}
	if ev, tm := sys.Core.Sched.PlacementPasses(); ev != 2 || tm != 0 {
		t.Errorf("%d event / %d timer passes, want 2 / 0", ev, tm)
	}
}

// TestRunnerThroughDatasetAPI: a dataset session with the live runner
// installed produces the same collected rows as the default local pool.
func TestRunnerThroughDatasetAPI(t *testing.T) {
	build := func(s *dataset.Session) *dataset.Dataset[dataset.Pair[string, int]] {
		lines := dataset.Parallelize(s, []string{
			"a b a", "b c", "c c a", "d",
		}, 3)
		words := dataset.FlatMap(lines, "tok", func(line string) []dataset.Pair[string, int] {
			var out []dataset.Pair[string, int]
			for _, w := range strings.Fields(line) {
				out = append(out, dataset.Pair[string, int]{Key: w, Val: 1})
			}
			return out
		})
		return dataset.ReduceByKey(words, "count", 2, func(a, b int) int { return a + b })
	}

	s1 := dataset.NewSession()
	want, err := dataset.Collect(build(s1))
	if err != nil {
		t.Fatal(err)
	}
	s2 := dataset.NewSession()
	s2.SetRunner(&Runner{Config: Config{Workers: 2}, Name: "ds-test"})
	got, err := dataset.Collect(build(s2))
	if err != nil {
		t.Fatal(err)
	}
	key := func(ps []dataset.Pair[string, int]) map[string]int {
		m := map[string]int{}
		for _, p := range ps {
			m[p.Key] = p.Val
		}
		return m
	}
	wm, gm := key(want), key(got)
	if len(wm) != len(gm) {
		t.Fatalf("local %d keys, live %d keys", len(wm), len(gm))
	}
	for k, v := range wm {
		if gm[k] != v {
			t.Errorf("key %q: local %d, live %d", k, v, gm[k])
		}
	}
}

// TestLiveUDFErrorSurfaces: a failing monotask aborts the run with its error.
func TestLiveUDFErrorSurfaces(t *testing.T) {
	g := dag.NewGraph()
	in := g.CreateData(2)
	out := g.CreateData(2)
	op := g.CreateOp(resource.CPU, "boom").Read(in).Create(out)
	op.SetUDF(localrt.UDF(func([][]localrt.Row) []localrt.Row { panic("kaboom") }))
	sys := NewSystem(Config{})
	submit(sys, "boom", g, in, []localrt.Row{1, 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := sys.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want UDF panic surfaced", err)
	}
}

// TestLiveContextCancel: cancelling the run context aborts Run promptly and
// leaks no executor goroutines (close waits for them).
func TestLiveContextCancel(t *testing.T) {
	g := dag.NewGraph()
	in := g.CreateData(2)
	out := g.CreateData(2)
	op := g.CreateOp(resource.CPU, "slow").Read(in).Create(out)
	op.SetUDF(localrt.UDF(func(ins [][]localrt.Row) []localrt.Row {
		time.Sleep(50 * time.Millisecond)
		return ins[0]
	}))
	sys := NewSystem(Config{})
	submit(sys, "slow", g, in, []localrt.Row{1, 2, 3, 4})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := sys.Run(ctx); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
