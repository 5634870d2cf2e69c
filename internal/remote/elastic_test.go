package remote

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ursa/internal/core"
	"ursa/internal/dataset"
	"ursa/internal/elastic"
	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// TestDrainMidJobNoFallbacks drains a worker while it holds in-flight
// monotasks: the drain must wait for its commits (and for every dispatch
// fetching from it) before deregistering, migrate its partitions' fetch
// routing to the canonical store, and finish the jobs with rows identical
// to direct execution — with zero fetch fallbacks and zero failures,
// because a graceful drain is not a §4.3 event.
func TestDrainMidJobNoFallbacks(t *testing.T) {
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

	// Drain worker 1 once it has work in flight, so the drain path must
	// wait out real executions and migrate real partitions.
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if lc.Master.Transport.Worker(1).Dispatches > 0 {
				lc.Master.DrainWorker(1, "test: mid-job drain")
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	runCluster(t, lc)

	if got := lc.Master.members().drained; got != 1 {
		t.Fatalf("drained workers = %d, want 1", got)
	}
	if got := lc.Master.migrated; got < 1 {
		t.Fatalf("migrated partitions = %d, want >= 1 (the worker committed in-flight work)", got)
	}
	if got := lc.Master.members().failed; got != 0 {
		t.Fatalf("a graceful drain must not count as a worker failure, got %d", got)
	}
	if got := lc.Master.Transport.FetchFallbacks(); got != 0 {
		t.Fatalf("fetch fallbacks = %d, want 0: drain migration must reroute before the worker exits", got)
	}
	got, err := wcJob.ResultRows()
	if err != nil {
		t.Fatalf("wordcount result: %v", err)
	}
	if want := directRows(t, wcName, wcParams); !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
		t.Fatalf("wordcount rows diverge after drain: got %d want %d rows", len(got), len(want))
	}
	sqlGot, err := sqlJob.ResultRows()
	if err != nil {
		t.Fatalf("sql result: %v", err)
	}
	if want := directRows(t, sqlName, sqlParams); !reflect.DeepEqual(stringify(sqlGot), stringify(want)) {
		t.Fatalf("sql rows diverge after drain")
	}
}

// TestElasticDrainAndKillChaos composes a graceful drain with an abrupt
// kill in the same run: worker 1 drains while worker 2 dies mid-job. The
// drain must stay graceful (no failure attributed to it), the kill must
// recover via §4.3, and both jobs' rows must be byte-identical to direct
// execution.
func TestElasticDrainAndKillChaos(t *testing.T) {
	wcName, wcParams := workload.WordCount(workload.WordCountParams{Lines: 20000, InParts: 12, OutParts: 6})
	sqlName, sqlParams := workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 4000})
	lc := startCluster(t, 4, Config{Elastic: true})
	wcJob, err := lc.Master.Submit(wcName, wcParams)
	if err != nil {
		t.Fatalf("submit wordcount: %v", err)
	}
	sqlJob, err := lc.Master.Submit(sqlName, sqlParams)
	if err != nil {
		t.Fatalf("submit sql: %v", err)
	}

	go func() {
		deadline := time.Now().Add(30 * time.Second)
		drained, killed := false, false
		for time.Now().Before(deadline) && !(drained && killed) {
			if !drained && lc.Master.Transport.Worker(1).Dispatches > 0 {
				lc.Master.DrainWorker(1, "chaos: drain")
				drained = true
			}
			if !killed && lc.Master.Transport.Worker(2).Dispatches > 0 {
				lc.Agents[2].Kill()
				killed = true
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	runCluster(t, lc)

	if got := lc.Master.members().failed; got != 1 {
		t.Fatalf("worker failures = %d, want exactly 1 (the kill, not the drain)", got)
	}
	if got := lc.Master.members().drained; got != 1 {
		t.Fatalf("drained workers = %d, want 1", got)
	}
	got, err := wcJob.ResultRows()
	if err != nil {
		t.Fatalf("wordcount result: %v", err)
	}
	if want := directRows(t, wcName, wcParams); !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
		t.Fatalf("wordcount rows diverge under drain+kill chaos: got %d want %d rows", len(got), len(want))
	}
	sqlGot, err := sqlJob.ResultRows()
	if err != nil {
		t.Fatalf("sql result: %v", err)
	}
	if want := directRows(t, sqlName, sqlParams); !reflect.DeepEqual(stringify(sqlGot), stringify(want)) {
		t.Fatalf("sql rows diverge under drain+kill chaos")
	}
}

// TestElasticJoinDrainReplayDeterminism journals a run with a mid-run
// elastic join and a graceful drain, then replays the journal offline: the
// replayed state must be byte-identical to the live master's, with the
// joined worker registered and the drained one's lifecycle recorded.
func TestElasticJoinDrainReplayDeterminism(t *testing.T) {
	jdir := t.TempDir()
	name, params := workload.WordCount(workload.WordCountParams{Lines: 20000, InParts: 12, OutParts: 6})
	lc := startCluster(t, 3, Config{
		Elastic:         true,
		JournalDir:      jdir,
		SnapshotEvery:   1 << 20, // keep the full event history
		HeartbeatMisses: 40,      // a -race stall must not journal a WorkerFailed
	})
	job, err := lc.Master.Submit(name, params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Mid-run: a fourth agent joins the running cluster, then worker 2 is
	// drained — both must land in the journal as replayable events.
	var joined *agent.Agent
	var joinMu sync.Mutex
	trigger := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if lc.Master.Transport.Worker(0).Dispatches > 0 {
				a, err := agent.Dial(agent.Config{MasterAddrs: []string{lc.Master.Addr()}})
				if err != nil {
					trigger <- err
					return
				}
				joinMu.Lock()
				joined = a
				joinMu.Unlock()
				lc.Master.DrainWorker(2, "test: scale-down")
				trigger <- nil
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		trigger <- context.DeadlineExceeded
	}()
	t.Cleanup(func() {
		joinMu.Lock()
		defer joinMu.Unlock()
		if joined != nil {
			joined.Kill()
		}
	})

	runCluster(t, lc)
	if err := <-trigger; err != nil {
		t.Fatalf("mid-run join: %v", err)
	}

	if got := lc.Master.joined(); got != 1 {
		t.Fatalf("joined workers = %d, want 1", got)
	}
	if got := lc.Master.members().drained; got != 1 {
		t.Fatalf("drained workers = %d, want 1", got)
	}
	if got := lc.Master.Transport.FetchFallbacks(); got != 0 {
		t.Fatalf("fetch fallbacks = %d, want 0", got)
	}
	got, err := job.ResultRows()
	if err != nil {
		t.Fatalf("result rows: %v", err)
	}
	if want := directRows(t, name, params); !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
		t.Fatalf("rows diverge after join+drain: got %d want %d rows", len(got), len(want))
	}

	liveBytes := lc.Master.StateBytes()
	lc.Close() // syncs and closes the journal

	st, _ := replayJournal(t, jdir)
	if !bytes.Equal(st.AppendEncoded(nil), liveBytes) {
		t.Fatal("journal replay does not reproduce the live control-plane state after join+drain")
	}
	if len(st.Workers) != 4 {
		t.Fatalf("replayed registry has %d workers, want 4 (3 initial + 1 joined)", len(st.Workers))
	}
	if w := st.Workers[2]; !w.Drained {
		t.Fatalf("replayed worker 2 = %+v, want drained", w)
	}
	if w := st.Workers[3]; w.Failed || w.Drained || w.ShuffleAddr == "" {
		t.Fatalf("replayed joined worker = %+v, want live with a shuffle address", w)
	}
}

// TestElasticAutoscaleLoopback is the smoke-elastic scenario: a serve-mode
// cluster bounded to [2, 5] workers scales up under admission pressure
// (each job's reservation clamps to total live memory, so jobs serialize
// and queue), then drains back to the minimum once the queue empties and
// the scale-down hysteresis elapses. 2 → 5 → 2, all through the public
// provisioner seam.
func TestElasticAutoscaleLoopback(t *testing.T) { testElasticAutoscaleLoopback(t, core.Config{}) }

// TestElasticAutoscaleLoopbackCheckedPlacement repeats the scenario with
// every placement pass compared with core.FullRebuildPlacer, so the carried
// worker snapshots are checked across mid-run joins and graceful drains on
// the real cluster.
func TestElasticAutoscaleLoopbackCheckedPlacement(t *testing.T) {
	chk := &core.CheckingPlacer{}
	testElasticAutoscaleLoopback(t, core.Config{Placer: chk})
	assertPlacementChecked(t, chk)
}

func testElasticAutoscaleLoopback(t *testing.T, coreCfg core.Config) {
	var (
		addrMu     sync.Mutex
		masterAddr string
		spawnMu    sync.Mutex
		spawned    []*agent.Agent
	)
	prov := elastic.ProvisionerFunc(func() error {
		addrMu.Lock()
		addr := masterAddr
		addrMu.Unlock()
		a, err := agent.Dial(agent.Config{MasterAddrs: []string{addr}})
		if err != nil {
			return err
		}
		spawnMu.Lock()
		spawned = append(spawned, a)
		spawnMu.Unlock()
		return nil
	})
	t.Cleanup(func() {
		spawnMu.Lock()
		defer spawnMu.Unlock()
		for _, a := range spawned {
			a.Kill()
		}
	})

	lc := startCluster(t, 2, Config{
		Serve:             true,
		Autoscale:         true,
		MinWorkers:        2,
		MaxWorkers:        5,
		AutoscaleInterval: 20 * time.Millisecond,
		MemPerWorker:      1,
		Provisioner:       prov,
		Core:              coreCfg,
	})
	addrMu.Lock()
	masterAddr = lc.Master.Addr()
	addrMu.Unlock()
	runErr := make(chan error, 1)
	go func() { runErr <- lc.Master.Run(context.Background()) }()

	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{Tenant: "elastic", OnStatus: log.add})

	// Every job over-reserves (estimate clamps to total live memory), so
	// admission serializes them and the queue sustains scale-up pressure.
	_, params := workload.Micro(workload.MicroParams{Rows: 20000, MemEstimate: 10})
	const njobs = 8
	ids := make([]int64, njobs)
	for i := range ids {
		id, err := c.Submit("micro", params)
		if err != nil {
			t.Fatalf("submit job %d: %v", i, err)
		}
		ids[i] = id
	}

	// Scale-up: pressure must provision up to MaxWorkers — 3 mid-run joins.
	waitFor(t, "3 elastic joins", func() bool { return lc.Master.joined() >= 3 })
	for _, id := range ids {
		log.waitState(t, id, wire.StateFinished)
	}
	// Scale-down: with the queue empty and reservations released, the
	// hysteresis elapses and the autoscaler drains back to MinWorkers.
	waitFor(t, "3 graceful scale-down drains", func() bool { return lc.Master.members().drained >= 3 })

	if up, _ := lc.Master.scaler.Decisions(); up < 1 {
		t.Fatalf("scale-up decisions = %d, want >= 1", up)
	}
	// A drain's completion is observed before the controller logs the
	// decision that caused it, so the counter can trail Drained by one tick.
	waitFor(t, "3 scale-down decisions", func() bool {
		_, down := lc.Master.scaler.Decisions()
		return down >= 3
	})
	if got := lc.Master.members().failed; got != 0 {
		t.Fatalf("autoscaling caused %d worker failures, want 0", got)
	}
	lc.Master.Drain()
	waitRun(t, lc, runErr)
}

// TestElasticRecoversAfterAllWorkersLost pins the elastic all-workers-dead
// contract: instead of failing the run, the master pauses admission and
// keeps the backlog queued until capacity returns — here via a fresh agent
// joining mid-run — and the job still finishes with correct rows.
func TestElasticRecoversAfterAllWorkersLost(t *testing.T) {
	name, params := workload.WordCount(workload.WordCountParams{Lines: 3000, InParts: 6, OutParts: 4})
	lc := startCluster(t, 1, Config{Elastic: true})
	job, err := lc.Master.Submit(name, params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- lc.Master.Run(ctx) }()

	waitFor(t, "work in flight", func() bool { return lc.Master.Transport.Worker(0).Dispatches > 0 })
	lc.Agents[0].Kill()
	waitFor(t, "worker failure detected", func() bool { return lc.Master.members().failed == 1 })
	waitFor(t, "admission paused", func() bool { return lc.Master.paused() })

	// Capacity returns: a fresh worker joins the running cluster and the
	// stalled backlog resumes on it.
	a, err := agent.Dial(agent.Config{MasterAddrs: []string{lc.Master.Addr()}})
	if err != nil {
		t.Fatalf("joining replacement agent: %v", err)
	}
	t.Cleanup(a.Kill)

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run did not complete after the replacement worker joined")
	}
	if got := lc.Master.joined(); got != 1 {
		t.Fatalf("joined workers = %d, want 1", got)
	}
	// The join ended the pause: no tick ran to re-read it, so only a pause
	// defined from its owners (the scheduler, the connection table) says so.
	if lc.Master.paused() {
		t.Fatal("admission still reads paused after the replacement worker joined and the job finished")
	}
	got, err := job.ResultRows()
	if err != nil {
		t.Fatalf("result rows: %v", err)
	}
	if want := directRows(t, name, params); !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
		t.Fatalf("rows diverge after all-workers-dead recovery: got %d want %d rows", len(got), len(want))
	}
}

// TestElasticJoinPreparesFrontDoorJobs pins the catch-up Prepare contract
// for mid-run joins: a worker that joins while a front-door job is already
// admitted and dispatching must be prepared for it before any of its
// monotasks land there. The Prepare broadcast at admission reached only the
// workers of that moment, so the join must enumerate the job table for the
// jobs still running — a joiner missing the Prepare rejects the first
// dispatch as unprepared and gets failed by the master.
//
// The job is held open on state, not on how long it takes: its map UDF blocks
// until the test closes a gate. Worker 0 has one core, and 12 map tasks of
// 20 000 rows each meet a placement horizon of CoreRate × EPT = 30 000 rows,
// so worker 0 is full after two of them and stays full while the one it runs
// is blocked. At least ten tasks are unplaced whenever the joiner arrives,
// and it is the only place they can go.
func TestElasticJoinPreparesFrontDoorJobs(t *testing.T) {
	gate := make(chan struct{})
	name := fmt.Sprintf("held-map-%p", gate) // the registry is process-wide; -count reruns this
	workload.Register(name, func([]byte) (*workload.BuiltJob, error) {
		vals := make([]int, 12*20000)
		for i := range vals {
			vals[i] = i
		}
		sess := dataset.NewSession()
		pairs := dataset.FlatMap(dataset.Parallelize(sess, vals, 12), "hold", func(v int) []dataset.Pair[string, int] {
			<-gate
			if v%20000 != 0 {
				return nil
			}
			return []dataset.Pair[string, int]{{Key: "k", Val: 1}}
		})
		sums := dataset.ReduceByKey(pairs, "sum", 2, func(a, b int) int { return a + b })
		plan, err := sess.Graph().Build()
		return &workload.BuiltJob{
			Spec: core.JobSpec{Name: name, Graph: sess.Graph(), MemEstimate: 1},
			Plan: plan, Inputs: sess.InputBindings(), Output: sums.Dag(),
		}, err
	})

	lc, runErr := startServeCluster(t, 1, Config{Elastic: true, CoresPerWorker: 1})
	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{Tenant: "join", OnStatus: log.add})
	jobID, err := c.Submit(name, nil)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Join only once the job is mid-dispatch on worker 0, so its Prepare
	// broadcast at admission strictly predates the join.
	waitFor(t, "work in flight", func() bool { return lc.Master.Transport.Worker(0).Dispatches > 0 })
	a, err := agent.Dial(agent.Config{MasterAddrs: []string{lc.Master.Addr()}})
	if err != nil {
		t.Fatalf("joining agent: %v", err)
	}
	t.Cleanup(a.Kill)
	waitFor(t, "elastic join", func() bool { return lc.Master.joined() == 1 })
	// The joiner must take work from the pre-join job for this test to mean
	// anything, and with the gate still shut that job cannot have finished.
	waitFor(t, "the joiner to be given the job's unplaced tasks", func() bool {
		return lc.Master.Transport.Worker(1).Dispatches > 0
	})
	close(gate)

	log.waitState(t, jobID, wire.StateFinished)
	if got := lc.Master.members().failed; got != 0 {
		t.Fatalf("worker failures = %d, want 0 (joiner rejected a dispatch?)", got)
	}
	lc.Master.Drain()
	waitRun(t, lc, runErr)
}

// TestReserveCorrectionLearns checks the DRESS-style feedback loop: a
// workload that chronically over-reserves (estimate far above its observed
// memory peak) must pull its learned correction factor below 1, so later
// submissions of the same workload reserve less.
func TestReserveCorrectionLearns(t *testing.T) {
	// Observed peaks are measured in bytes, so the estimate and capacity are
	// byte-denominated too — the corrector only makes sense in like units.
	lc := startCluster(t, 1, Config{
		Serve:          true,
		ReserveCorrect: true,
		MemPerWorker:   1 << 30,
	})
	runErr := make(chan error, 1)
	go func() { runErr <- lc.Master.Run(context.Background()) }()
	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{Tenant: "dress", OnStatus: log.add})

	// Micro's real working set is a few KB of rows; a 512 MiB estimate is a
	// gross over-reservation the corrector must learn away.
	_, params := workload.Micro(workload.MicroParams{Rows: 512, MemEstimate: 512 << 20})
	for i := 0; i < 3; i++ {
		id, err := c.Submit("micro", params)
		if err != nil {
			t.Fatalf("submit job %d: %v", i, err)
		}
		log.waitState(t, id, wire.StateFinished)
	}

	// Every job reserved and reported a peak, so each one is a correction.
	if got, _, _ := lc.Master.corrector.Summary(); got != 3 {
		t.Fatalf("corrections = %d, want 3 (one per finished job)", got)
	}
	if f := lc.Master.corrector.Factor("micro"); f >= 1 {
		t.Fatalf("learned factor for micro = %.3f, want < 1 (workload over-reserves)", f)
	}
	if _, min, _ := lc.Master.corrector.Summary(); min >= 1 {
		t.Fatalf("corrector range min = %.3f, want < 1", min)
	}
	lc.Master.Drain()
	waitRun(t, lc, runErr)
}
