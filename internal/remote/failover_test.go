package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/core"
	"ursa/internal/cpstate"
	"ursa/internal/journal"
	"ursa/internal/remote/agent"
	"ursa/internal/remote/shuffle"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// replayJournal opens a journal directory offline and replays it through
// cpstate.Replay, returning the state and the tail's decoded events.
func replayJournal(t *testing.T, dir string) (*cpstate.State, []cpstate.Event) {
	t.Helper()
	jnl, rep, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatalf("reopening journal: %v", err)
	}
	defer jnl.Close()
	st, err := cpstate.Replay(rep.Snapshot, rep.Events)
	if err != nil {
		t.Fatalf("replaying journal: %v", err)
	}
	events := make([]cpstate.Event, len(rep.Events))
	for i, evb := range rep.Events {
		events[i], _ = cpstate.DecodeEvent(evb) // Replay decoded every one
	}
	return st, events
}

// TestFailoverStandbyTakeover is the failover chaos test: a journaled
// primary is killed mid-run, the standby observes the lease expire, replays
// the journal to byte-identical control-plane state, workers re-attach
// under generation 2, tasks whose commits came back complete without
// running again, and the final rows match direct in-process execution
// exactly.
func TestFailoverStandbyTakeover(t *testing.T) {
	tm := failover(t, false)
	// Tasks the journal holds gen-1 commits of were recovered into the
	// canonical store and completed from it instead of running again.
	if n := tm.Journal.Precommits(); n < 1 {
		t.Fatalf("recovered tasks completed = %d, want >= 1", n)
	}
}

// TestFailoverWithDeadWorker kills one agent together with the primary. The
// takeover must not wait for it: its slot is failed once the heartbeat-loss
// window after promotion passes, its partitions are read from the canonical
// store, and the run finishes on the two agents that re-attached.
func TestFailoverWithDeadWorker(t *testing.T) {
	failover(t, true)
}

// failover runs three wordcount jobs on a journaled primary with three
// agents, crashes the primary once commits are journaled (and, if
// killAgent, one agent with it), and runs the backlog to completion on the
// promoted standby. It checks the rows against direct execution, the
// re-attaches, the dead slot's failure and both generations' marks in the
// journal; checkQuiesced checks the offline replay against the live state
// and at-most-once commits across the generations. The promoted master is
// returned closed.
func failover(t *testing.T, killAgent bool) *Master {
	t.Helper()
	jdir := t.TempDir()
	name, params := workload.WordCount(workload.WordCountParams{Lines: 3000, InParts: 6, OutParts: 4})
	want := sortedStrings(directRows(t, name, params))

	base := Config{
		Workers:           3,
		JournalDir:        jdir,
		LeaseTTL:          400 * time.Millisecond,
		SnapshotEvery:     1 << 20, // keep the full event history for the assertions below
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   40, // generous: a -race scheduling stall must not journal a WorkerFailed
	}
	primary, err := NewMaster(base)
	if err != nil {
		t.Fatalf("starting primary: %v", err)
	}
	defer primary.Close()
	standby, err := NewStandby(base)
	if err != nil {
		t.Fatalf("starting standby: %v", err)
	}
	defer standby.Close()

	agents := make([]*agent.Agent, 3)
	for i := range agents {
		a, err := agent.Dial(agent.Config{
			MasterAddrs:        []string{primary.Addr(), standby.Addr()},
			RegisterAttempts:   100,
			RegisterBackoff:    10 * time.Millisecond,
			RegisterBackoffMax: 50 * time.Millisecond,
			// Every monotask takes at least this long, so no job can finish
			// between the kill trigger below and the crash: the standby
			// must inherit all njobs.
			ExecDelay: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("starting agent %d: %v", i, err)
		}
		agents[i] = a
		defer a.Kill()
	}

	const njobs = 3
	for i := 0; i < njobs; i++ {
		if _, err := primary.Submit(name, params); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	primaryDone := make(chan error, 1)
	go func() { primaryDone <- primary.Run(ctx) }()

	// Kill the primary once real progress is journaled: at least two commits
	// accepted, no job finished yet — and, if an agent dies too, output of
	// its own committed, which the takeover then cannot pull back.
	progress := func() bool { return primary.CommitCount() >= 2 }
	if killAgent {
		progress = func() (origin bool) {
			primary.rec.read(func(st *cpstate.State) {
				for _, origins := range st.Origins {
					origin = origin || slices.Contains(origins, int32(agents[2].ID()))
				}
			})
			return origin && primary.CommitCount() >= 2
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for !progress() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the primary to accept commits")
		}
		time.Sleep(time.Millisecond)
	}
	primary.Close() // crash: listener, worker conns, canonical store, lease renewal all die
	dead := -1
	if killAgent {
		// Killed after the fence, so the primary journals no failure for it:
		// the standby inherits the slot as live.
		dead = agents[2].ID()
		agents[2].Kill()
		agents = agents[:2]
	}
	<-primaryDone // "all workers dead" — the crash took every link down

	tm, err := standby.Takeover(ctx)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	defer tm.Close()
	if got := tm.Generation(); got != 2 {
		t.Fatalf("takeover generation = %d, want 2", got)
	}
	inherited := tm.Jobs()
	if len(inherited) != njobs {
		t.Fatalf("inherited %d jobs, want %d", len(inherited), njobs)
	}

	if err := tm.Run(ctx); err != nil {
		t.Fatalf("takeover run: %v (journal: %s)", err, tm.Journal.StatsLine())
	}

	// Every inherited job's rows must match direct execution exactly.
	for i, j := range inherited {
		got, err := j.ResultRows()
		if err != nil {
			t.Fatalf("job %d result rows: %v", i, err)
		}
		if !reflect.DeepEqual(sortedStrings(got), want) {
			t.Fatalf("job %d rows diverge from direct execution after failover", i)
		}
	}

	// The surviving workers re-attached under the new generation, keeping
	// their IDs; the dead one's slot was failed.
	if n := tm.Journal.Reattaches(); n != len(agents) {
		t.Fatalf("reattaches = %d, want %d", n, len(agents))
	}
	for i, a := range agents {
		if g := a.Gen(); g != 2 {
			t.Fatalf("agent %d generation = %d, want 2", i, g)
		}
	}
	if dead >= 0 && !tm.rec.worker(dead).Failed {
		t.Fatalf("slot %d of the agent that died with the primary is not failed", dead)
	}

	checkQuiesced(t, tm) // closes tm: replay == final state, at-most-once commits across generations

	_, events := replayJournal(t, jdir)
	var gens []int64
	for _, ev := range events {
		if g, ok := ev.(cpstate.Generation); ok {
			gens = append(gens, g.Gen)
		}
	}
	if !reflect.DeepEqual(gens, []int64{1, 2}) {
		t.Fatalf("generation events = %v, want [1 2]", gens)
	}
	return tm
}

// TestFailoverTakesFreshJoins: once a promoted master runs, an agent it has
// no open slot for joins it elastically, into a slot past the replayed
// registry, and the join is journaled — so a standby's autoscaler can still
// scale up after the takeover. That holds for a fresh agent and for one
// whose re-attach comes after Run failed its slot: that agent takes the new
// ID instead of being turned away.
func TestFailoverTakesFreshJoins(t *testing.T) {
	jdir := t.TempDir()
	base := Config{
		Workers:           1,
		Serve:             true,
		JournalDir:        jdir,
		LeaseTTL:          400 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   40,
	}
	primary, err := NewMaster(base)
	if err != nil {
		t.Fatalf("starting primary: %v", err)
	}
	defer primary.Close()
	standby, err := NewStandby(base)
	if err != nil {
		t.Fatalf("starting standby: %v", err)
	}
	defer standby.Close()
	dial := func(d wire.DialFunc, addrs ...string) *agent.Agent {
		t.Helper()
		a, err := agent.Dial(agent.Config{
			MasterAddrs:        addrs,
			Dial:               d,
			ShuffleDial:        wire.NetDial,
			RegisterAttempts:   1000,
			RegisterBackoff:    10 * time.Millisecond,
			RegisterBackoffMax: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("starting agent: %v", err)
		}
		t.Cleanup(a.Kill)
		return a
	}
	// The first agent cannot reach any master while gated: it misses the
	// takeover's re-attach window.
	var gated atomic.Bool
	late := dial(func(addr string) (net.Conn, error) {
		if gated.Load() {
			return nil, errors.New("gated")
		}
		return wire.NetDial(addr)
	}, primary.Addr(), standby.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	primaryDone := make(chan error, 1)
	go func() { primaryDone <- primary.Run(ctx) }()
	if err := primary.WaitWorkers(ctx); err != nil {
		t.Fatal(err)
	}
	gated.Store(true)
	primary.Close()
	<-primaryDone

	tm, err := standby.Takeover(ctx)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	defer tm.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- tm.Run(ctx) }()
	waitFor(t, "the absent slot to fail", func() bool { return tm.rec.worker(0).Failed })
	gated.Store(false)
	waitFor(t, "the late agent to join", func() bool { return late.Gen() == 2 })
	if late.ID() != 1 {
		t.Fatalf("late agent took slot %d, want 1 (its old slot 0 was failed)", late.ID())
	}
	if fresh := dial(nil, standby.Addr()); fresh.ID() != 2 {
		t.Fatalf("fresh agent took slot %d, want 2 (past the registry)", fresh.ID())
	}
	tm.Drain()
	if err := <-runErr; err != nil {
		t.Fatalf("takeover run: %v", err)
	}
	tm.Close()

	st, events := replayJournal(t, jdir)
	if len(st.Workers) != 3 || !st.Workers[0].Failed || !st.Workers[1].Live() || !st.Workers[2].Live() {
		t.Fatalf("replayed registry = %+v, want slot 0 failed and the joined slots 1 and 2 live", st.Workers)
	}
	for _, id := range []int32{1, 2} {
		if !slices.ContainsFunc(events, func(ev cpstate.Event) bool {
			j, ok := ev.(cpstate.WorkerRegistered)
			return ok && j.Worker == id
		}) {
			t.Fatalf("journal holds no WorkerRegistered for slot %d", id)
		}
	}
	if n := tm.Journal.Reattaches(); n != 0 {
		t.Fatalf("reattaches = %d, want 0 (the late agent joined)", n)
	}
}

// TestFailoverDefaultTimings runs a takeover at the shipped timings — lease,
// master heartbeat and agent registration backoff all left at their
// defaults — with one agent killed together with the primary. The agents
// that survived retry the standby only every second or two, yet both must
// re-attach into their own slots before the promoted master fails the dead
// one.
func TestFailoverDefaultTimings(t *testing.T) {
	base := Config{Workers: 3, Serve: true, JournalDir: t.TempDir()}
	primary, err := NewMaster(base)
	if err != nil {
		t.Fatalf("starting primary: %v", err)
	}
	defer primary.Close()
	standby, err := NewStandby(base)
	if err != nil {
		t.Fatalf("starting standby: %v", err)
	}
	defer standby.Close()
	agents := make([]*agent.Agent, 3)
	for i := range agents {
		a, err := agent.Dial(agent.Config{MasterAddrs: []string{primary.Addr(), standby.Addr()}})
		if err != nil {
			t.Fatalf("starting agent %d: %v", i, err)
		}
		agents[i] = a
		defer a.Kill()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	primaryDone := make(chan error, 1)
	go func() { primaryDone <- primary.Run(ctx) }()
	if err := primary.WaitWorkers(ctx); err != nil {
		t.Fatal(err)
	}
	primary.Close()
	dead := agents[2].ID()
	agents[2].Kill()
	<-primaryDone

	tm, err := standby.Takeover(ctx)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	defer tm.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- tm.Run(ctx) }()
	waitFor(t, "the dead agent's slot to fail", func() bool { return tm.rec.worker(dead).Failed })
	if n := tm.Journal.Reattaches(); n != 2 {
		t.Fatalf("reattaches = %d, want 2", n)
	}
	for _, a := range agents[:2] {
		if w := tm.rec.worker(a.ID()); a.Gen() != 2 || !w.Live() {
			t.Fatalf("agent %d: generation %d, slot %+v; want it re-attached live under generation 2", a.ID(), a.Gen(), w)
		}
	}
	tm.Drain()
	if err := <-runErr; err != nil {
		t.Fatalf("takeover run: %v", err)
	}
}

// TestReplayMatchesLiveState runs a journaled single-master cluster to
// completion and checks an offline replay of its journal reproduces the
// live control-plane state byte for byte.
func TestReplayMatchesLiveState(t *testing.T) {
	jdir := t.TempDir()
	name, params := workload.WordCount(workload.WordCountParams{Lines: 2000, InParts: 4, OutParts: 3})
	lc := startCluster(t, 2, Config{JournalDir: jdir})
	for i := 0; i < 2; i++ {
		if _, err := lc.Master.Submit(name, params); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	runCluster(t, lc) // its quiesce check closes the master and replays the journal against it

	st, _ := replayJournal(t, jdir)
	if st.Gen != 1 || len(st.Order) != 2 {
		t.Fatalf("replayed state gen=%d jobs=%d, want gen=1 jobs=2", st.Gen, len(st.Order))
	}
	for id, js := range st.Jobs {
		if js.Phase != cpstate.PhaseFinished {
			t.Fatalf("job %d phase = %d, want finished", id, js.Phase)
		}
	}
}

// TestJournalFailureIsVisible breaks a journaled serve master's disk under it
// (the journal directory is moved away, so the next snapshot cannot be written
// and the journal's error turns sticky) and checks that the master says so:
// one log line, err=1 on the journal stats line, an appended count that no
// longer grows while events still do, and the error from Run and Close. The
// master keeps serving; stepping down is not what this checks.
func TestJournalFailureIsVisible(t *testing.T) {
	var (
		mu   sync.Mutex
		logs []string
	)
	jdir := t.TempDir()
	lc, runErr := startServeCluster(t, 1, Config{
		JournalDir: jdir, SnapshotEvery: 8,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	slog := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{OnStatus: slog.add})
	_, params := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	runJob := func() {
		t.Helper()
		id, err := c.Submit("micro", params)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		slog.waitState(t, id, wire.StateFinished)
	}
	counts := func() (events, appended int, line string) {
		line = lc.Master.Journal.StatsLine()
		fmt.Sscanf(line, "journal: gen=1 events=%d appended=%d", &events, &appended)
		return events, appended, line
	}

	runJob()
	if ev, app, line := counts(); app == 0 || app != ev || !strings.HasSuffix(line, " err=0") {
		t.Fatalf("healthy journal reads %q, want every event appended and err=0", line)
	}
	if err := os.Rename(jdir, jdir+".gone"); err != nil {
		t.Fatal(err)
	}
	// Each job records more than SnapshotEvery events, so the first one cuts
	// a snapshot the flusher cannot write; a later record meets the error.
	waitFor(t, "the journal error to reach the recorder", func() bool {
		runJob()
		return lc.Master.rec.Err() != nil
	})
	ev0, app0, _ := counts()
	runJob()
	if ev1, app1, line := counts(); ev1 <= ev0 || app1 != app0 || !strings.HasSuffix(line, " err=1") {
		t.Errorf("after the failure: events %d -> %d, appended %d -> %d, line %q; want events up, appended flat, err=1",
			ev0, ev1, app0, app1, line)
	}
	lc.Master.Drain()
	select {
	case err := <-runErr:
		if err == nil || err != lc.Master.rec.Err() {
			t.Errorf("Run returned %v, want the journal's error %v", err, lc.Master.rec.Err())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve master did not drain in time")
	}
	if err := lc.Master.Close(); err == nil {
		t.Error("Close returned nil after the journal failed")
	}
	mu.Lock()
	defer mu.Unlock()
	if n := strings.Count(strings.Join(logs, "\n"), "journal failed"); n != 1 {
		t.Errorf("journal failure logged %d times, want once; log:\n%s", n, strings.Join(logs, "\n"))
	}
}

// TestJournalStatsLineFormat pins the journal line bench/ parses, so a format
// change fails here rather than in the benchmark run: after one job on a
// journaled serve master the line matches the benchmark's Sscanf, every
// event was appended, and the snapshot the job's events cut shows once the
// flusher has completed it on disk.
func TestJournalStatsLineFormat(t *testing.T) {
	lc, runErr := startServeCluster(t, 1, Config{
		JournalDir: t.TempDir(), SnapshotEvery: 8,
	})
	slog := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{OnStatus: slog.add})
	_, params := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	id, err := c.Submit("micro", params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	slog.waitState(t, id, wire.StateFinished)

	parse := func() (events, appended, snaps int) {
		t.Helper()
		line := lc.Master.Journal.StatsLine()
		n, err := fmt.Sscanf(line, "journal: gen=1 events=%d appended=%d replayed=0 (0 B) snaps=%d",
			&events, &appended, &snaps)
		if n != 3 {
			t.Fatalf("journal line %q does not match the benchmark's format: %v", line, err)
		}
		return events, appended, snaps
	}
	if events, appended, _ := parse(); events != appended || events <= 8 {
		t.Fatalf("events=%d appended=%d, want equal and above SnapshotEvery (8)", events, appended)
	}
	waitFor(t, "a snapshot completed on disk", func() bool {
		_, _, snaps := parse()
		return snaps >= 1
	})
	lc.Master.Drain()
	waitRun(t, lc, runErr)
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobStatusNotFound checks the status read path: a live job reports its
// phase through to Finished, and a job the master has no record of gets a
// terminal StateNotFound instead of silence.
func TestJobStatusNotFound(t *testing.T) {
	lc := startCluster(t, 1, Config{Serve: true})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- lc.Master.Run(ctx) }()

	c, err := DialClient(ClientConfig{Addr: lc.Master.Addr(), Tenant: "t"})
	if err != nil {
		t.Fatalf("dialing client: %v", err)
	}
	t.Cleanup(c.Close)
	name, params := workload.WordCount(workload.WordCountParams{Lines: 200, InParts: 2, OutParts: 2})
	id, err := c.Submit(name, params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, "job to finish", func() bool {
		st, err := c.Status(id)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.JobID != id {
			t.Fatalf("status echoes job %d, want %d", st.JobID, id)
		}
		return st.State == wire.StateFinished
	})

	st, err := c.Status(id + 1000)
	if err != nil {
		t.Fatalf("status of unknown job: %v", err)
	}
	if st.State != wire.StateNotFound {
		t.Fatalf("unknown job state = %d, want StateNotFound", st.State)
	}
	if lc.Master.Journal.NotFoundReads() == 0 {
		t.Fatal("not-found read was not counted")
	}

	lc.Master.Drain()
	if err := <-runDone; err != nil {
		t.Fatalf("serve run: %v", err)
	}
}

// TestFailoverFencedDrainSendsNoDrainDone: a drain that completes after the
// primary's fence (Close has begun) is not journaled, so a successor replays
// the worker as draining and waits for its agent to re-attach. The dying
// master must therefore not send that agent DrainDone, on which it would exit
// for good.
func TestFailoverFencedDrainSendsNoDrainDone(t *testing.T) {
	// Long enough that the fence surely lands while the task still runs.
	const delay = 300 * time.Millisecond
	lc := startClusterWith(t, 1, Config{Serve: true}, agent.Config{ExecDelay: delay})
	exited := make(chan error, 1)
	go func() { exited <- lc.Agents[0].Wait() }()
	name, params := workload.WordCount(workload.WordCountParams{Lines: 200, InParts: 1, OutParts: 1})
	if _, err := lc.Master.Submit(name, params); err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- lc.Master.Run(ctx) }()
	inFlight := func() int {
		n := make(chan int, 1)
		lc.Master.Sys.Drv.Send(func() { n <- len(lc.Master.exec.tasks) })
		return <-n
	}
	waitFor(t, "a task in flight", func() bool { return inFlight() > 0 })
	lc.Master.DrainWorker(0, "test")
	waitFor(t, "the drain to begin", func() bool { return lc.Master.rec.worker(0).Draining })
	lc.Master.rec.fence()
	// The task's last record empties the worker, which completes the drain.
	waitFor(t, "the worker to empty", func() bool { return inFlight() == 0 })
	if lc.Master.rec.worker(0).Drained {
		t.Fatal("the drain was journaled: the fence came too late")
	}
	select {
	case err := <-exited:
		if err == nil {
			t.Fatal("the agent exited cleanly: the fenced master sent it DrainDone")
		}
		t.Fatalf("the agent exited: %v", err)
	case <-time.After(200 * time.Millisecond):
	}
	cancel()
	<-runErr
}

// TestFailoverFencedFinishKeepsAgentJob: a job whose last records arrive
// after the primary's fence (Close has begun) finishes on the dying master,
// but its JobFinished is not journaled, so a successor resubmits the job and
// pulls its committed outputs back from the agents' shuffle servers. The
// dying master must therefore not tell the agents the job is done: an agent
// that dropped it would answer the takeover "unknown job", every commit of
// the job would re-execute, and its commits would land twice across the
// generations.
func TestFailoverFencedFinishKeepsAgentJob(t *testing.T) {
	// Long enough that the reduce task's Task frame is surely on the wire
	// before the fence, and its records surely arrive after it.
	const delay = 300 * time.Millisecond
	// A serving master: its run outlives the job, so the agent is still up
	// to be asked what it holds.
	lc := startClusterWith(t, 1, Config{Serve: true}, agent.Config{ExecDelay: delay})
	name, params := workload.WordCount(workload.WordCountParams{Lines: 200, InParts: 1, OutParts: 1})
	job, err := lc.Master.Submit(name, params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	runErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		runErr <- lc.Master.Run(ctx)
	}()
	// The map commit readies the reduce task, placed in the same loop step;
	// its two monotasks take 2×delay on the agent.
	waitFor(t, "the map commit", func() bool { return lc.Master.CommitCount() >= 1 })
	time.Sleep(delay / 2)
	lc.Master.rec.fence()
	waitFor(t, "the job to finish", func() bool {
		finished := make(chan bool, 1)
		lc.Master.Sys.Drv.Send(func() { finished <- job.Live.Core.State == core.JobFinished })
		return <-finished
	})
	if got := lc.Master.CommitCount(); got != 1 {
		t.Fatalf("journaled commits = %d, want 1: the fence came too late", got)
	}
	var pk cpstate.PartKey
	lc.Master.rec.read(func(st *cpstate.State) {
		for k := range st.Origins {
			pk = k
		}
	})
	// A JobDone, had one been sent, reaches the agent long before this.
	time.Sleep(100 * time.Millisecond)
	c := shuffle.NewClient(lc.Agents[0].ShuffleAddr(), shuffle.ClientConfig{Retries: -1})
	defer c.Close()
	contribs, _, _, _, err := c.Fetch(job.id, pk.DS, pk.Part, 0)
	if err != nil || len(contribs) == 0 {
		t.Fatalf("the agent no longer serves job %d's committed output (%d contributions): %v", job.id, len(contribs), err)
	}
	lc.Master.Drain()
	<-runErr
}
