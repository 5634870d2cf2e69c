package remote

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ursa/internal/cpstate"
	"ursa/internal/journal"
	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// replayJournal opens a journal directory offline and folds snapshot + tail
// into a fresh state, returning the state and the raw decoded events.
func replayJournal(t *testing.T, dir string) (*cpstate.State, []cpstate.Event) {
	t.Helper()
	jnl, rep, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatalf("reopening journal: %v", err)
	}
	defer jnl.Close()
	st := cpstate.New()
	if rep.Snapshot != nil {
		if st, err = cpstate.DecodeState(rep.Snapshot); err != nil {
			t.Fatalf("decoding snapshot: %v", err)
		}
	}
	events := make([]cpstate.Event, 0, len(rep.Events))
	for i, evb := range rep.Events {
		ev, err := cpstate.DecodeEvent(evb)
		if err != nil {
			t.Fatalf("decoding event %d: %v", i, err)
		}
		cpstate.Apply(st, ev)
		events = append(events, ev)
	}
	return st, events
}

// TestFailoverStandbyTakeover is the failover chaos test: a journaled
// primary is killed mid-run, the standby observes the lease expire, replays
// the journal to byte-identical control-plane state, workers re-attach
// under generation 2, replayed commits short-circuit re-execution, and the
// final rows match direct in-process execution exactly.
func TestFailoverStandbyTakeover(t *testing.T) {
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
	// accepted, no job finished yet.
	deadline := time.Now().Add(30 * time.Second)
	for primary.CommitCount() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the primary to accept commits")
		}
		time.Sleep(time.Millisecond)
	}
	primary.Close() // crash: listener, worker conns, canonical store, lease renewal all die
	<-primaryDone   // "all workers dead" — the crash took every link down

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

	// Workers re-attached under the new generation, keeping their IDs.
	if n := tm.Journal.Reattaches(); n != 3 {
		t.Fatalf("reattaches = %d, want 3", n)
	}
	for i, a := range agents {
		if g := a.Gen(); g != 2 {
			t.Fatalf("agent %d generation = %d, want 2", i, g)
		}
	}
	// The journaled gen-1 commits were recovered into the canonical store
	// and short-circuited instead of re-executing.
	if n := tm.Journal.Precommits(); n < 1 {
		t.Fatalf("precommits = %d, want >= 1", n)
	}

	liveBytes := tm.StateBytes()
	tm.Close() // sync the journal tail before the offline replay

	st, events := replayJournal(t, jdir)
	if !bytes.Equal(st.AppendEncoded(nil), liveBytes) {
		t.Fatal("journal replay does not reproduce the live control-plane state")
	}
	// At-most-once across generations: no (job, monotask) commits twice, and
	// both generations mark the journal.
	commits := make(map[cpstate.MTKey]int)
	var gens []int64
	for _, ev := range events {
		switch ev := ev.(type) {
		case cpstate.Commit:
			commits[cpstate.MTKey{Job: ev.JobID, MT: ev.MTID}]++
		case cpstate.Generation:
			gens = append(gens, ev.Gen)
		}
	}
	if len(commits) == 0 {
		t.Fatal("journal holds no commits")
	}
	for k, n := range commits {
		if n > 1 {
			t.Fatalf("job %d monotask %d committed %d times (want at most once)", k.Job, k.MT, n)
		}
	}
	if !reflect.DeepEqual(gens, []int64{1, 2}) {
		t.Fatalf("generation events = %v, want [1 2]", gens)
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
	runCluster(t, lc)
	liveBytes := lc.Master.StateBytes()
	lc.Close() // syncs and closes the journal

	st, _ := replayJournal(t, jdir)
	if !bytes.Equal(st.AppendEncoded(nil), liveBytes) {
		t.Fatal("journal replay does not reproduce the live control-plane state")
	}
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

// TestTenantIntakeCap checks the per-tenant intake bound: with a cap of 1
// and the control loop parked (the master is never Run, so no submission
// reaches it), a tenant's second submission is rejected while another
// tenant's passes.
func TestTenantIntakeCap(t *testing.T) {
	lc := startCluster(t, 1, Config{
		Serve:           true,
		TenantIntakeCap: 1,
	})
	name, params := workload.WordCount(workload.WordCountParams{Lines: 100, InParts: 2, OutParts: 2})

	c1, err := DialClient(ClientConfig{Addr: lc.Master.Addr(), Tenant: "bursty"})
	if err != nil {
		t.Fatalf("dialing client: %v", err)
	}
	t.Cleanup(c1.Close)
	sub1 := make(chan error, 1)
	go func() {
		_, err := c1.Submit(name, params) // parks in the driver inbox; never acked in this test
		sub1 <- err
	}()
	waitFor(t, "first submission queued", func() bool { return lc.Master.fd.intakeDepth() == 1 })

	if _, err := c1.Submit(name, params); err == nil || !strings.Contains(err.Error(), "tenant intake full") {
		t.Fatalf("second same-tenant submission: got %v, want tenant intake full", err)
	}

	c2, err := DialClient(ClientConfig{Addr: lc.Master.Addr(), Tenant: "quiet"})
	if err != nil {
		t.Fatalf("dialing second client: %v", err)
	}
	t.Cleanup(c2.Close)
	sub2 := make(chan error, 1)
	go func() {
		_, err := c2.Submit(name, params)
		sub2 <- err
	}()
	// The other tenant is under its own cap: accepted onto the intake.
	waitFor(t, "other tenant queued", func() bool { return lc.Master.fd.intakeDepth() == 2 })
	select {
	case err := <-sub2:
		t.Fatalf("other tenant's submission resolved early: %v", err)
	default:
	}
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
