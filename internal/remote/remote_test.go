package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"ursa/internal/core"
	"ursa/internal/cpstate"
	"ursa/internal/localrt"
	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
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
// yet closed, holds nothing in flight: the scheduling core is quiesced, the
// executor holds no dispatch or fetch reference, and the control-plane state
// no in-flight placement or tenant reservation.
func checkQuiesced(t *testing.T, m *Master) {
	t.Helper()
	if err := m.Sys.Core.CheckQuiesced(); err != nil {
		t.Error(err)
	}
	if len(m.exec.dispatches) != 0 || len(m.exec.fetchRefs) != 0 {
		t.Errorf("quiesced master holds %d dispatches and fetch references on %d workers",
			len(m.exec.dispatches), len(m.exec.fetchRefs))
	}
	m.rec.read(func(st *cpstate.State) {
		if len(st.InFlight) != 0 || len(st.TenantReserved) != 0 {
			t.Errorf("quiesced state holds %d in-flight placements and tenant reservations %v",
				len(st.InFlight), st.TenantReserved)
		}
	})
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
// scheduler's carried worker snapshots, driven by real agents' completions
// and measured rates, must place exactly what re-reading every worker places.
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
		t.Fatal("no dispatch→completion RTT was measured")
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
