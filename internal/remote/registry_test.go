package remote

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ursa/internal/core"
	"ursa/internal/cpstate"
	"ursa/internal/dag"
	"ursa/internal/live"
	"ursa/internal/localrt"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

func foldEvents(evs ...cpstate.Event) *cpstate.State {
	st := cpstate.New()
	for _, ev := range evs {
		cpstate.Apply(st, ev)
	}
	return st
}

// TestBuildFetchesFromState pins fetch routing as a function of the
// control-plane state alone: the executor keeps no origin map of its own, so
// a hand-built State is the whole input.
func TestBuildFetchesFromState(t *testing.T) {
	const job, self = 9, 4
	commit := func(mt, worker int32, part int32) cpstate.Event {
		return cpstate.Commit{JobID: job, MTID: mt, Worker: worker, Seq: uint64(mt),
			Writes: []cpstate.CommitWrite{{DS: 1, Part: part}}}
	}
	st := foldEvents(
		cpstate.WorkerRegistered{Worker: 0, ShuffleAddr: "w0:1"},
		cpstate.WorkerRegistered{Worker: 1, ShuffleAddr: "w1:1"},
		cpstate.WorkerRegistered{Worker: 2, ShuffleAddr: "w2:1"},
		cpstate.WorkerRegistered{Worker: 3, ShuffleAddr: "w3:1"},
		cpstate.WorkerJoined{Worker: self, ShuffleAddr: "w4:1"},
		cpstate.JobSubmitted{JobID: job, Workload: "x"},
		commit(10, 0, 0),
		commit(11, 0, 1), commit(12, 1, 1),
		commit(13, 3, 2),
		commit(14, 2, 3),
		commit(15, self, 4),
		commit(16, 0, 6), commit(17, self, 6),
		// Another job's origins for the same (dataset, partition) never leak in.
		cpstate.Commit{JobID: job + 1, MTID: 1, Worker: 1, Seq: 99,
			Writes: []cpstate.CommitWrite{{DS: 1, Part: 0}}},
		cpstate.WorkerFailed{Worker: 1},
		cpstate.WorkerDraining{Worker: 2},
		cpstate.WorkerDraining{Worker: 3},
		cpstate.WorkerDrained{Worker: 3},
	)
	ds := &dag.Dataset{ID: 1, Partitions: 8}
	peer := func(part, origin int32, addr string) wire.FetchSpec {
		return wire.FetchSpec{DatasetID: 1, Part: part, Origin: origin, Addr: addr}
	}
	for _, tc := range []struct {
		name string
		part int
		want []wire.FetchSpec
	}{
		{"live origin: its own shuffle server", 0, []wire.FetchSpec{peer(0, 0, "w0:1")}},
		{"one failed origin: whole partition from the master store", 1, []wire.FetchSpec{peer(1, -1, "")}},
		{"drained origin: whole partition from the master store", 2, []wire.FetchSpec{peer(2, -1, "")}},
		{"draining origin: still peer-to-peer", 3, []wire.FetchSpec{peer(3, 2, "w2:1")}},
		{"the executing worker's own contribution: skipped", 4, nil},
		{"no origin (job input): nothing to fetch", 5, nil},
		{"self among live origins: only the others", 6, []wire.FetchSpec{peer(6, 0, "w0:1")}},
	} {
		got := buildFetches(st, job, []localrt.DatasetPart{{Dataset: ds, Part: tc.part}}, self)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}

	// A terminal job's origins are compacted out of the state, and with them
	// every fetch spec.
	cpstate.Apply(st, cpstate.JobFinished{JobID: job})
	if got := buildFetches(st, job, []localrt.DatasetPart{{Dataset: ds, Part: 0}}, self); got != nil {
		t.Errorf("finished job still routes fetches: %+v", got)
	}
}

// TestWorkerLifecyclePredicates tabulates what the master may send a worker
// in each lifecycle stage. Lifecycle is the journaled WorkerState; the
// connection row says only whether there is a connection to send on.
func TestWorkerLifecyclePredicates(t *testing.T) {
	reg := cpstate.WorkerRegistered{Worker: 0, ShuffleAddr: "w0:1", Cores: 2}
	row := func(pending bool) *workerLink { return &workerLink{drainPending: pending} }
	for _, tc := range []struct {
		name   string
		events []cpstate.Event
		link   *workerLink

		dispatchable, attached, servesPeers bool
	}{
		{"registered", []cpstate.Event{reg}, row(false), true, true, true},
		{"joined elastically", []cpstate.Event{cpstate.WorkerJoined{Worker: 0, ShuffleAddr: "w0:1"}}, row(false), true, true, true},
		{"draining", []cpstate.Event{reg, cpstate.WorkerDraining{}}, row(false), false, true, true},
		{"drain pending on fetch references", []cpstate.Event{reg, cpstate.WorkerDraining{}}, row(true), false, true, true},
		{"drained", []cpstate.Event{reg, cpstate.WorkerDraining{}, cpstate.WorkerDrained{}}, nil, false, false, false},
		{"failed", []cpstate.Event{reg, cpstate.WorkerFailed{}}, nil, false, false, false},
		{"failed mid-drain", []cpstate.Event{reg, cpstate.WorkerDraining{}, cpstate.WorkerFailed{}}, nil, false, false, false},
		{"inherited dead at takeover", []cpstate.Event{reg, cpstate.WorkerFailed{}, cpstate.Generation{Gen: 2}}, nil, false, false, false},
		{"inherited mid-drain at takeover", []cpstate.Event{reg, cpstate.WorkerDraining{}, cpstate.Generation{Gen: 2}}, nil, false, false, true},
		{"inherited live, not yet re-attached", []cpstate.Event{reg, cpstate.Generation{Gen: 2}}, nil, false, false, true},
		{"re-attached under the new generation", []cpstate.Event{reg, cpstate.Generation{Gen: 2}, reg}, row(false), true, true, true},
		// Close fences the recorder before it cuts the links, so the failure
		// is never recorded: the dropped row alone must stop all traffic.
		{"connection cut after the recorder was fenced", []cpstate.Event{reg}, nil, false, false, true},
	} {
		w := foldEvents(tc.events...).Worker(0)
		if got := dispatchable(tc.link, w); got != tc.dispatchable {
			t.Errorf("%s: dispatchable = %v, want %v", tc.name, got, tc.dispatchable)
		}
		if got := attached(tc.link, w); got != tc.attached {
			t.Errorf("%s: attached = %v, want %v", tc.name, got, tc.attached)
		}
		if got := w.ServesPeers(); got != tc.servesPeers {
			t.Errorf("%s: ServesPeers = %v, want %v", tc.name, got, tc.servesPeers)
		}
		if w.ShuffleAddr != "w0:1" {
			t.Errorf("%s: shuffle address %q lost", tc.name, w.ShuffleAddr)
		}
	}
}

// TestLinkLivenessFromCreation pins the liveness sweep's predicate on the
// connection row: the heartbeat clock starts when the row is created, so a
// worker that never heartbeats — it handshook, or a dispatch raced its first
// beat — is failable exactly HeartbeatMisses intervals after it registered,
// not sooner (no epoch-sized age) and not never; a heartbeat restarts the
// budget; and a dropped row is never swept.
func TestLinkLivenessFromCreation(t *testing.T) {
	const interval, misses = 50 * time.Millisecond, 3
	budget := time.Duration(misses) * interval
	created := time.Date(2026, 10, 15, 12, 0, 0, 0, time.UTC)
	l := newLink(0, nil, created)
	for _, tc := range []struct {
		after time.Duration
		want  bool
	}{
		{0, false},
		{interval, false},
		{budget, false},
		{budget + time.Nanosecond, true},
		{time.Hour, true},
	} {
		if got := overdue(l, created.Add(tc.after), interval, misses); got != tc.want {
			t.Errorf("never-beating row %v after creation: overdue = %v, want %v", tc.after, got, tc.want)
		}
	}
	beat := created.Add(budget)
	l.lastBeat.Store(beat.UnixNano())
	if overdue(l, beat.Add(budget), interval, misses) || !overdue(l, beat.Add(budget+1), interval, misses) {
		t.Error("a heartbeat must restart the budget from the beat")
	}
	if overdue(nil, created.Add(time.Hour), interval, misses) {
		t.Error("a dropped row must never be swept")
	}
}

// TestWireIDsMintAboveState: a master mints job IDs above every ID the
// control-plane state has seen — terminal jobs a takeover does not resubmit
// included — and an inherited ID is kept as it is.
func TestWireIDsMintAboveState(t *testing.T) {
	st := foldEvents(
		cpstate.JobSubmitted{JobID: 1}, cpstate.JobSubmitted{JobID: 2}, cpstate.JobSubmitted{JobID: 3},
		cpstate.JobFinished{JobID: 3},
	)
	tbl := newJobTable(st.MaxJobID())
	inherited := &RemoteJob{Live: &live.Job{Core: &core.Job{}}, id: 2}
	fresh := &RemoteJob{Live: &live.Job{Core: &core.Job{}}}
	tbl.add(inherited)
	tbl.add(fresh)
	if inherited.id != 2 || fresh.id != 4 {
		t.Fatalf("ids = %d (inherited), %d (fresh); want 2, 4", inherited.id, fresh.id)
	}
	if tbl.get(4) != fresh || tbl.of(inherited.Live.Core) != inherited {
		t.Fatal("table lookups do not return the rows added")
	}
}

// TestFencedMasterDispatchesNothing: Close fences the recorder before it
// cuts the links, and the control loop keeps running in between. With the
// state as the registry, a placement made in that window would be built from
// origins frozen at the fence — so no Dispatch may follow the fence, or an
// agent would keep a half-fed output for the next generation to reuse.
func TestFencedMasterDispatchesNothing(t *testing.T) {
	lc := startCluster(t, 1, Config{})
	name, params := workload.WordCount(workload.WordCountParams{Lines: 200, InParts: 2, OutParts: 2})
	if _, err := lc.Master.Submit(name, params); err != nil {
		t.Fatalf("submit: %v", err)
	}
	lc.Master.rec.fence()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := lc.Master.Run(ctx); err == nil {
		t.Fatal("a fenced master ran its job to completion")
	}
	if got := lc.Master.Transport.Worker(0).Completions; got != 0 {
		t.Fatalf("an agent executed %d monotasks for a fenced master", got)
	}
}

// TestFrontDoorJobsReleasedAtQuiesce: a serving master keeps nothing for a
// front-door job once it is terminal — no table row, no canonical store, no
// origins or commits in the control-plane state — while a job
// submitted through Master.Submit keeps its store for the handle its caller
// holds.
func TestFrontDoorJobsReleasedAtQuiesce(t *testing.T) {
	lc := startCluster(t, 2, Config{Serve: true, MemPerWorker: 4})
	name, params := workload.WordCount(workload.WordCountParams{Lines: 600, InParts: 4, OutParts: 3})
	held, err := lc.Master.Submit(name, params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- lc.Master.Run(context.Background()) }()

	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{Tenant: "q", OnStatus: log.add})
	const n = 12
	ids := make([]int64, n)
	for i := range ids {
		if ids[i], err = c.Submit(name, params); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// Cancel the last while it is (most likely) still queued behind the
	// admission budget; either terminal state must release it.
	if err := c.Cancel(ids[n-1]); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	for _, id := range ids[:n-1] {
		log.waitState(t, id, wire.StateFinished)
	}
	waitFor(t, "cancelled or finished", func() bool {
		js, ok := lc.Master.rec.job(ids[n-1])
		return ok && js.Phase.Terminal()
	})
	waitFor(t, "the held job to finish", func() bool {
		js, _ := lc.Master.rec.job(held.id)
		return js.Phase.Terminal()
	})

	// Terminal status is streamed from the state hook; the release follows in
	// the same control-loop turn, so poll rather than assert at once.
	waitFor(t, "front-door rows released", func() bool { return len(lc.Master.jobs.all()) == 1 })
	if rows := lc.Master.jobs.all(); rows[0] != held {
		t.Fatalf("the surviving row is job %d, want the held job %d", rows[0].id, held.id)
	}
	for _, id := range ids {
		if lc.Master.resolveJob(id) != nil {
			t.Errorf("job %d: canonical store still resolvable after terminal status", id)
		}
		if js, ok := lc.Master.rec.job(id); !ok || !js.Phase.Terminal() || js.Workload != name {
			t.Errorf("job %d: journaled identity lost or not terminal: %+v ok=%v", id, js, ok)
		}
	}
	lc.Master.rec.read(func(st *cpstate.State) {
		if len(st.Origins) != 0 || len(st.Commits) != 0 {
			t.Errorf("state at quiesce holds %d origins, %d commits; want none",
				len(st.Origins), len(st.Commits))
		}
	})

	lc.Master.Drain()
	waitRun(t, lc, runErr)
	got, err := held.ResultRows()
	if err != nil {
		t.Fatalf("held job rows: %v", err)
	}
	if want := directRows(t, name, params); !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
		t.Fatalf("held job rows diverge: got %d want %d rows", len(got), len(want))
	}
}
