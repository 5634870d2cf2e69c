package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"ursa/internal/core"
	"ursa/internal/cpstate"
	"ursa/internal/localrt"
	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// directRows runs the workload in-process (no sockets) and returns its
// finished output rows — the ground truth distributed runs must match.
func directRows(t *testing.T, name string, params []byte) []localrt.Row {
	t.Helper()
	bj, err := workload.Build(name, params)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	rows, err := localrt.LocalRunner{}.RunPlan(bj.Plan, bj.Inputs)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	out := rows(bj.Output)
	if bj.Finish != nil {
		out, err = bj.Finish(out)
		if err != nil {
			t.Fatalf("finish %s: %v", name, err)
		}
	}
	return out
}

func stringify(rows []localrt.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	return out
}

func sortedStrings(rows []localrt.Row) []string {
	out := stringify(rows)
	sort.Strings(out)
	return out
}

// startCluster launches a loopback cluster with test-friendly timings and
// registers cleanup.
func startCluster(t *testing.T, n int, cfg Config) *LocalCluster {
	return startClusterWith(t, n, cfg, agent.Config{})
}

// startClusterWith is startCluster with an explicit agent config — chaos
// tests compose fault injectors and transport tuning here.
func startClusterWith(t *testing.T, n int, cfg Config, agentCfg agent.Config) *LocalCluster {
	t.Helper()
	cfg.HeartbeatInterval = 50 * time.Millisecond
	if cfg.HeartbeatMisses == 0 {
		// Generous under -race: goroutine scheduling stalls must not read
		// as worker deaths.
		cfg.HeartbeatMisses = 8
	}
	lc, err := StartLocalCluster(n, cfg, agentCfg)
	if err != nil {
		t.Fatalf("starting local cluster: %v", err)
	}
	t.Cleanup(lc.Close)
	return lc
}

// waitHeartbeats blocks until every worker's liveness beacon has been
// observed at least once: each connection row's heartbeat clock, stamped at
// its creation, must move past the moment the call began, which is later.
// Heartbeats flow from agent.Dial onward, so this is deterministic.
func waitHeartbeats(t *testing.T, lc *LocalCluster, n int) {
	t.Helper()
	since := time.Now().UnixNano()
	waitFor(t, fmt.Sprintf("%d workers to heartbeat", n), func() bool {
		lc.Master.mu.Lock()
		defer lc.Master.mu.Unlock()
		for _, l := range lc.Master.workers[:n] {
			if l == nil || l.lastBeat.Load() <= since {
				return false
			}
		}
		return true
	})
}

// runCluster runs a batch-mode cluster to completion and checks it
// quiesced.
func runCluster(t *testing.T, lc *LocalCluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := lc.Master.Run(ctx); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	checkQuiesced(t, lc.Master)
}

// checkQuiesced fails t unless m, whose Run has returned and which is not
// yet closed, holds nothing in flight: the scheduling core is quiesced (no
// reservation held, scheduler-wide or per tenant), and the executor, the one
// owner of in-flight work, holds no task or fetch reference. A journaled
// master is then closed and its journal checked against it: replayed through
// cpstate.Replay, the directory reproduces the final state byte for byte, and
// every (job, task) commits at most once across all its generations, except
// that a later generation re-runs a task whose last committer is failed in
// the replayed state (its output may have died with it).
func checkQuiesced(t *testing.T, m *Master) {
	t.Helper()
	if err := m.Sys.Core.CheckQuiesced(); err != nil {
		t.Error(err)
	}
	if len(m.exec.tasks) != 0 || len(m.exec.fetchRefs) != 0 {
		t.Errorf("quiesced master holds %d tasks and fetch references on %d workers",
			len(m.exec.tasks), len(m.exec.fetchRefs))
	}
	if m.cfg.JournalDir == "" {
		return
	}
	if err := m.Close(); err != nil {
		t.Errorf("closing the journaled master: %v", err)
	}
	st, events := replayJournal(t, m.cfg.JournalDir)
	if !bytes.Equal(st.AppendEncoded(nil), m.StateBytes()) {
		t.Error("journal replay does not reproduce the final control-plane state")
	}
	type commit struct {
		gen    int64
		worker int32
	}
	gen, last := int64(0), make(map[cpstate.TaskKey]commit)
	for _, ev := range events {
		switch ev := ev.(type) {
		case cpstate.Generation:
			gen = ev.Gen
		case cpstate.TaskCommitted:
			k := cpstate.TaskKey{Job: ev.JobID, Task: ev.Task}
			if c, ok := last[k]; ok && (c.gen == gen || !st.Worker(int(c.worker)).Failed) {
				t.Errorf("generation %d committed job %d task %d again (worker %d committed it in generation %d)",
					gen, k.Job, k.Task, c.worker, c.gen)
			}
			last[k] = commit{gen, ev.Worker}
		}
	}
}

// TestLoopbackWordCount runs wordcount on a 2-agent loopback cluster and
// checks the distributed result multiset matches in-process execution.
func TestLoopbackWordCount(t *testing.T) {
	name, params := workload.WordCount(workload.WordCountParams{Lines: 3000, InParts: 6, OutParts: 4})
	lc := startCluster(t, 2, Config{})
	job, err := lc.Master.Submit(name, params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitHeartbeats(t, lc, 2)
	runCluster(t, lc)
	got, err := job.ResultRows()
	if err != nil {
		t.Fatalf("result rows: %v", err)
	}
	want := directRows(t, name, params)
	if !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
		t.Fatalf("distributed rows diverge from direct execution:\ngot  %d rows\nwant %d rows",
			len(got), len(want))
	}
	// Two agents shuffling to each other must have moved real bytes over
	// the wire, and every dispatch must have completed exactly once.
	tr := lc.Master.Transport
	if tr.WireBytes() <= 0 {
		t.Fatalf("expected shuffle wire bytes > 0, got %v", tr.WireBytes())
	}
	if n := lc.Master.members().failed; n != 0 {
		t.Fatalf("unexpected worker failures: %d", n)
	}
	for id := 0; id < 2; id++ {
		w := tr.Worker(id)
		if w.Dispatches != w.Completions {
			t.Fatalf("worker %d: %d dispatches vs %d completions", id, w.Dispatches, w.Completions)
		}
	}
}

// TestLoopbackSQLAnalytics runs every canned OLAP query on a 3-agent
// cluster; finished rows (ORDER BY applied) must be identical — same rows,
// same order — to direct execution.
func TestLoopbackSQLAnalytics(t *testing.T) { testLoopbackSQLAnalytics(t, core.Config{}) }

// TestLoopbackSQLAnalyticsCheckedPlacement repeats the run with every
// placement pass on the master compared with core.FullRebuildPlacer: the
// scheduler's placer, driven by real agents' completions and measured rates,
// must place exactly what the exhaustive reference places.
func TestLoopbackSQLAnalyticsCheckedPlacement(t *testing.T) {
	chk := &core.CheckingPlacer{}
	testLoopbackSQLAnalytics(t, core.Config{Placer: chk})
	assertPlacementChecked(t, chk)
}

// assertPlacementChecked reads a CheckingPlacer once its control loop has
// stopped.
func assertPlacementChecked(t *testing.T, chk *core.CheckingPlacer) {
	t.Helper()
	if chk.Passes == 0 {
		t.Fatal("no placement pass was compared")
	}
	if chk.Diffs != 0 {
		t.Fatalf("%d of %d placement passes differ from the full rebuild; first: %s",
			chk.Diffs, chk.Passes, chk.FirstDiff)
	}
}

func testLoopbackSQLAnalytics(t *testing.T, coreCfg core.Config) {
	lc := startCluster(t, 3, Config{Core: coreCfg})
	var jobs []*RemoteJob
	var specs []struct {
		name   string
		params []byte
	}
	for qi := range workload.SQLQueries {
		name, params := workload.SQLAnalytics(workload.SQLParams{QueryIndex: qi, SalesRows: 1500})
		job, err := lc.Master.Submit(name, params)
		if err != nil {
			t.Fatalf("submit query %d: %v", qi, err)
		}
		jobs = append(jobs, job)
		specs = append(specs, struct {
			name   string
			params []byte
		}{name, params})
	}
	runCluster(t, lc)
	for qi, job := range jobs {
		got, err := job.ResultRows()
		if err != nil {
			t.Fatalf("query %d result: %v", qi, err)
		}
		want := directRows(t, specs[qi].name, specs[qi].params)
		if !reflect.DeepEqual(stringify(got), stringify(want)) {
			t.Fatalf("query %d: distributed rows diverge from direct execution\ngot:  %v\nwant: %v",
				qi, stringify(got), stringify(want))
		}
	}
}

// TestLoopbackRepeatedParams: two clients concurrently submit jobs of two
// identities — one micro and one small sql_analytics (workload, params),
// several times each — to a 2-agent loopback, so each agent runs several
// jobs at once over one shared build of each. Every job's rows must equal
// direct execution. The front door forgets a job once it finishes, so the
// test reads each job's rows from the canonical store in the master's
// job-state hook, as the job finishes.
func TestLoopbackRepeatedParams(t *testing.T) {
	type identity struct {
		name   string
		params []byte
		canon  func([]localrt.Row) []string
	}
	// micro's rows are a multiset; the query orders the SQL rows.
	micro, sql := identity{canon: sortedStrings}, identity{canon: stringify}
	micro.name, micro.params = workload.Micro(workload.MicroParams{Rows: 200, InParts: 3, OutParts: 2, MemEstimate: 1})
	sql.name, sql.params = workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 600})
	jobs := []identity{micro, sql}
	want := make([][]string, len(jobs))
	for k, job := range jobs {
		want[k] = job.canon(directRows(t, job.name, job.params))
	}

	lc := startCluster(t, 2, Config{Serve: true})
	m := lc.Master
	var (
		mu   sync.Mutex
		got  = make(map[int64][]localrt.Row)
		kind = make(map[int64]int) // index into jobs
	)
	hook := m.Sys.Core.OnJobStateChange
	m.Sys.Core.OnJobStateChange = func(j *core.Job) {
		if rj := m.jobs.of(j); rj != nil && j.State == core.JobFinished {
			rows, err := rj.ResultRows()
			if err != nil {
				t.Errorf("job %d result rows: %v", rj.id, err)
			}
			mu.Lock()
			got[rj.id] = rows
			mu.Unlock()
		}
		hook(j)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- m.Run(context.Background()) }()

	const rounds = 3
	logs := []*statusLog{newStatusLog(), newStatusLog()}
	ids := make([][]int64, len(logs))
	var wg sync.WaitGroup
	for i, log := range logs {
		c := dialFrontDoor(t, lc, ClientConfig{OnStatus: log.add})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k, job := range jobs {
					id, err := c.Submit(job.name, job.params)
					if err != nil {
						t.Errorf("submit %s: %v", job.name, err)
						return
					}
					mu.Lock()
					kind[id] = k
					mu.Unlock()
					ids[i] = append(ids[i], id)
				}
			}
		}()
	}
	wg.Wait()
	for i, log := range logs {
		for _, id := range ids[i] {
			log.waitState(t, id, wire.StateFinished)
		}
	}
	m.Drain()
	waitRun(t, lc, runErr)

	mu.Lock()
	defer mu.Unlock()
	if n := len(logs) * rounds * len(jobs); len(kind) != n || len(got) != n {
		t.Fatalf("%d jobs submitted, %d finished with rows; want %d of each", len(kind), len(got), n)
	}
	for id, k := range kind {
		if g := jobs[k].canon(got[id]); !reflect.DeepEqual(g, want[k]) {
			t.Errorf("job %d (%s): rows diverge from direct execution\ngot:  %v\nwant: %v", id, jobs[k].name, g, want[k])
		}
	}
}

// TestMeasuredRatesFeedback checks the §4.2.2 loop closed over TCP: after a
// run, the master's per-worker rate monitors hold measured (finite,
// positive) processing rates from the agents' reported completions.
func TestMeasuredRatesFeedback(t *testing.T) {
	name, params := workload.WordCount(workload.WordCountParams{Lines: 5000, InParts: 8, OutParts: 4})
	lc := startCluster(t, 2, Config{})
	if _, err := lc.Master.Submit(name, params); err != nil {
		t.Fatalf("submit: %v", err)
	}
	runCluster(t, lc)
	tr := lc.Master.Transport
	sawRTT := false
	for id := 0; id < 2; id++ {
		if tr.Worker(id).RTTEWMA > 0 {
			sawRTT = true
		}
	}
	if !sawRTT {
		t.Fatal("no task round trip was measured")
	}
}

// TestAgentFailureRecovery is the chaos test: a 3-agent cluster runs
// sql_analytics, one agent is killed mid-job, and the job must still
// complete — via heartbeat-timeout worker failure, §4.3 reset-for-retry,
// and the master's canonical store serving the dead agent's committed
// contributions — with rows identical to direct execution and no
// double-committed completion.
func TestAgentFailureRecovery(t *testing.T) {
	wcName, wcParams := workload.WordCount(workload.WordCountParams{Lines: 20000, InParts: 12, OutParts: 6})
	sqlName, sqlParams := workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 4000})
	lc := startCluster(t, 3, Config{})
	wcJob, err := lc.Master.Submit(wcName, wcParams)
	if err != nil {
		t.Fatalf("submit wordcount: %v", err)
	}
	sqlJob, err := lc.Master.Submit(sqlName, sqlParams)
	if err != nil {
		t.Fatalf("submit sql: %v", err)
	}

	// Kill agent 2 once it has work in flight, so the master loses both an
	// executing worker and a shuffle origin.
	victim := lc.Agents[2]
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if lc.Master.Transport.Worker(victim.ID()).Dispatches > 0 {
				victim.Kill()
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	runCluster(t, lc)

	if got := lc.Master.members().failed; got != 1 {
		t.Fatalf("expected exactly 1 worker failure, got %d", got)
	}
	got, err := wcJob.ResultRows()
	if err != nil {
		t.Fatalf("wordcount result: %v", err)
	}
	if want := directRows(t, wcName, wcParams); !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
		t.Fatalf("wordcount rows diverge after failure recovery: got %d want %d rows", len(got), len(want))
	}
	sqlGot, err := sqlJob.ResultRows()
	if err != nil {
		t.Fatalf("sql result: %v", err)
	}
	if want := directRows(t, sqlName, sqlParams); !reflect.DeepEqual(stringify(sqlGot), stringify(want)) {
		t.Fatalf("sql rows diverge after failure recovery:\ngot:  %v\nwant: %v",
			stringify(sqlGot), stringify(want))
	}
}

// TestSubmitAfterRunRejected pins the submission contract.
func TestSubmitAfterRunRejected(t *testing.T) {
	name, params := workload.WordCount(workload.WordCountParams{Lines: 200, InParts: 2, OutParts: 2})
	lc := startCluster(t, 1, Config{})
	if _, err := lc.Master.Submit(name, params); err != nil {
		t.Fatalf("submit: %v", err)
	}
	runCluster(t, lc)
	if _, err := lc.Master.Submit(name, params); err == nil {
		t.Fatal("Submit after Run should fail")
	}
}

// TestUnknownWorkloadRejected pins the registry error path.
func TestUnknownWorkloadRejected(t *testing.T) {
	m, err := NewMaster(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit("no-such-workload", nil); err == nil {
		t.Fatal("unknown workload should be rejected")
	}
	bad, _ := json.Marshal(workload.WordCountParams{Lines: -1})
	if _, err := m.Submit("wordcount", bad); err == nil {
		t.Fatal("invalid params should be rejected")
	}
}
