package remote

import (
	"context"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/cpstate"
	"ursa/internal/metrics"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// startServeCluster launches a loopback serve-mode cluster and runs the
// master in the background. The returned channel yields Run's error once
// the front door drains.
func startServeCluster(t *testing.T, n int, cfg Config) (*LocalCluster, <-chan error) {
	t.Helper()
	cfg.Serve = true
	lc := startCluster(t, n, cfg)
	runErr := make(chan error, 1)
	go func() { runErr <- lc.Master.Run(context.Background()) }()
	return lc, runErr
}

func dialFrontDoor(t *testing.T, lc *LocalCluster, cfg ClientConfig) *Client {
	t.Helper()
	cfg.Addr = lc.Master.Addr()
	c, err := DialClient(cfg)
	if err != nil {
		t.Fatalf("dial front door: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// waitRun waits for a master's Run to return once its drain completes and
// checks it quiesced.
func waitRun(t *testing.T, lc *LocalCluster, runErr <-chan error) {
	t.Helper()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("master did not drain in time")
	}
	checkQuiesced(t, lc.Master)
}

// intakeDepth reads how many submissions the front door has accepted that
// have not yet been queued on the control loop.
func (fd *frontDoor) intakeDepth() int {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.intake
}

// statusLog records JobStatus frames per job for assertions.
type statusLog struct {
	mu sync.Mutex
	by map[int64][]wire.JobStatus
}

func newStatusLog() *statusLog { return &statusLog{by: make(map[int64][]wire.JobStatus)} }

func (l *statusLog) add(st wire.JobStatus) {
	l.mu.Lock()
	l.by[st.JobID] = append(l.by[st.JobID], st)
	l.mu.Unlock()
}

// waitState polls until the job reaches one of the given states or the
// deadline.
func (l *statusLog) waitState(t *testing.T, jobID int64, states ...byte) wire.JobStatus {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		l.mu.Lock()
		for _, st := range l.by[jobID] {
			if slices.Contains(states, st.State) {
				l.mu.Unlock()
				return st
			}
		}
		l.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t.Fatalf("job %d never reached states %v (have %+v)", jobID, states, l.by[jobID])
	return wire.JobStatus{}
}

// TestFrontDoorSubmitLifecycle submits through the wire front door and
// follows one job from ack to finished status, then drains.
func TestFrontDoorSubmitLifecycle(t *testing.T) {
	lc, runErr := startServeCluster(t, 1, Config{})
	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{Tenant: "team-a", OnStatus: log.add})

	_, params := workload.Micro(workload.MicroParams{Rows: 256, MemEstimate: 1})
	jobID, err := c.Submit("micro", params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st := log.waitState(t, jobID, wire.StateFinished)
	if !strings.HasPrefix(st.Detail, "jct=") {
		t.Errorf("finished status detail = %q, want jct=...", st.Detail)
	}
	log.waitState(t, jobID, wire.StateAdmitted)

	if got := lc.Master.Ingest().Submissions(); got != 1 {
		t.Errorf("ingest submissions = %d, want 1", got)
	}
	lc.Master.Drain()
	waitRun(t, lc, runErr)
}

// TestFrontDoorCancelQueued cancels a job stuck behind the memory gate and
// expects a terminal cancelled status; the running job is unaffected.
func TestFrontDoorCancelQueued(t *testing.T) {
	// One admission slot: the first job reserves all memory, the second
	// queues behind it.
	lc, runErr := startServeCluster(t, 1, Config{MemPerWorker: 1})
	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{OnStatus: log.add})

	_, slow := workload.Micro(workload.MicroParams{Rows: 200000, MemEstimate: 1})
	runningID, err := c.Submit("micro", slow)
	if err != nil {
		t.Fatalf("submit running: %v", err)
	}
	_, small := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	queuedID, err := c.Submit("micro", small)
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	if err := c.Cancel(queuedID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	log.waitState(t, queuedID, wire.StateCancelled)
	log.waitState(t, runningID, wire.StateFinished)
	lc.Master.Drain()
	waitRun(t, lc, runErr)
}

// TestFrontDoorDrainRejects verifies that after Drain new submissions are
// terminally rejected and queued jobs are cancelled, while running work
// completes before Run returns.
func TestFrontDoorDrainRejects(t *testing.T) {
	lc, runErr := startServeCluster(t, 1, Config{MemPerWorker: 1})
	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{OnStatus: log.add})

	_, slow := workload.Micro(workload.MicroParams{Rows: 200000, MemEstimate: 1})
	if _, err := c.Submit("micro", slow); err != nil {
		t.Fatalf("submit running: %v", err)
	}
	_, small := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	queuedID, err := c.Submit("micro", small)
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	lc.Master.Drain()
	log.waitState(t, queuedID, wire.StateCancelled)
	if _, err := c.Submit("micro", small); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Errorf("submit during drain: err = %v, want draining rejection", err)
	}
	waitRun(t, lc, runErr)
}

// TestFrontDoorDrainRacesSubmissions: a drain that begins while four tenants
// still have submissions in flight answers every submission it accepted.
// Each Submit returns an ack or a draining rejection, every acked job reaches
// a terminal status — finished, or cancelled if it was still queued or
// reached the loop only after the drain's cancel pass — and the master stops
// with nothing left in flight.
func TestFrontDoorDrainRacesSubmissions(t *testing.T) {
	// Two admission slots, so part of the backlog is queued when the drain
	// lands.
	lc, runErr := startServeCluster(t, 1, Config{MemPerWorker: 2})
	const tenants, jobsPer, drainAfter = 4, 40, 10
	_, params := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	type ack struct {
		log *statusLog
		id  int64
	}
	var (
		mu       sync.Mutex
		acks     []ack
		returned atomic.Int32
		wg       sync.WaitGroup
	)
	for i := 0; i < tenants; i++ {
		log := newStatusLog()
		c := dialFrontDoor(t, lc, ClientConfig{Tenant: string(rune('a' + i)), OnStatus: log.add})
		for k := 0; k < jobsPer; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id, err := c.Submit("micro", params)
				if err == nil {
					mu.Lock()
					acks = append(acks, ack{log, id})
					mu.Unlock()
				} else if !strings.Contains(err.Error(), "draining") {
					t.Errorf("submission: %v, want an ack or a draining rejection", err)
				}
				if returned.Add(1) == drainAfter {
					lc.Master.Drain()
				}
			}()
		}
	}
	wg.Wait()
	waitRun(t, lc, runErr)
	for _, a := range acks {
		a.log.waitState(t, a.id, wire.StateFinished, wire.StateCancelled)
	}
}

// TestFrontDoorAdmitsParkedBurstInOnePass: submissions that accumulate while
// no admission pass can run are admitted together. The master is not yet Run,
// so 32 clients of 4 tenants park one submission each in the driver inbox;
// Run then acks every one of them out of exactly one batch: one
// reservation/rank/sort pass at its end for the burst, where a loop that
// admitted per submission would pay one per job.
func TestFrontDoorAdmitsParkedBurstInOnePass(t *testing.T) {
	const burst = 32
	lc := startCluster(t, 1, Config{Serve: true})
	_, params := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		c := dialFrontDoor(t, lc, ClientConfig{Tenant: string(rune('a' + i%4))})
		go func() {
			_, err := c.Submit("micro", params)
			errs <- err
		}()
	}
	// Before Run nothing else crosses the inbox but the one agent's
	// registration step.
	waitFor(t, "the whole burst parked in the driver inbox", func() bool { return lc.Master.Sys.Drv.Pending() == burst+1 })
	runErr := make(chan error, 1)
	go func() { runErr <- lc.Master.Run(context.Background()) }()
	for i := 0; i < burst; i++ {
		if err := <-errs; err != nil {
			t.Errorf("parked submission: %v", err)
		}
	}
	// A job is acked as it is queued, before the pass at the end of its batch.
	waitFor(t, "the burst's admission pass", func() bool {
		_, jobs := lc.Master.Ingest().BatchStats()
		return jobs == burst
	})
	if batches, jobs := lc.Master.Ingest().BatchStats(); batches != 1 || jobs != burst {
		t.Errorf("%d admission batches carrying %d jobs, want 1 and %d", batches, jobs, burst)
	}
	lc.Master.Drain()
	waitRun(t, lc, runErr)
}

// TestFrontDoorBadWorkloadRejected: a submission for an unknown workload is
// acked with the build error; the connection and the cluster stay healthy.
func TestFrontDoorBadWorkloadRejected(t *testing.T) {
	lc, runErr := startServeCluster(t, 1, Config{})
	c := dialFrontDoor(t, lc, ClientConfig{})

	if _, err := c.Submit("no-such-workload", nil); err == nil {
		t.Fatal("submit of unknown workload succeeded")
	}
	_, params := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	if _, err := c.Submit("micro", params); err != nil {
		t.Fatalf("submit after rejection: %v", err)
	}
	lc.Master.Drain()
	waitRun(t, lc, runErr)
}

// TestFrontDoorChurn hammers the front door from concurrent clients that
// submit and cancel while the master runs — the admission-churn soak the
// race detector watches.
func TestFrontDoorChurn(t *testing.T) {
	lc, runErr := startServeCluster(t, 1, Config{MemPerWorker: 2})
	const clients, jobsPer = 6, 20
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		tenant := string(rune('a' + i%3))
		wg.Add(1)
		go func(tenant string, seed int) {
			defer wg.Done()
			log := newStatusLog()
			c := dialFrontDoor(t, lc, ClientConfig{Tenant: tenant, OnStatus: log.add})
			for k := 0; k < jobsPer; k++ {
				_, params := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
				id, err := c.Submit("micro", params)
				if err != nil {
					t.Errorf("churn submit: %v", err)
					return
				}
				if (seed+k)%3 == 0 {
					if err := c.Cancel(id); err != nil {
						t.Errorf("churn cancel: %v", err)
						return
					}
				}
			}
		}(tenant, i)
	}
	wg.Wait()
	lc.Master.Drain()
	waitRun(t, lc, runErr)
	if got := lc.Master.Ingest().Submissions(); got != clients*jobsPer {
		t.Errorf("ingest submissions = %d, want %d", got, clients*jobsPer)
	}
}

// TestStatusAsFirstFrame: a client whose first frame is a JobQuery — a
// poller reconnecting to ask about its job — gets an answer, not a closed
// connection: StateFinished for a job that finished, StateNotFound for one
// the master never had.
func TestStatusAsFirstFrame(t *testing.T) {
	lc, runErr := startServeCluster(t, 1, Config{})
	log := newStatusLog()
	c := dialFrontDoor(t, lc, ClientConfig{OnStatus: log.add})
	_, params := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	id, err := c.Submit("micro", params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	log.waitState(t, id, wire.StateFinished)

	for _, tc := range []struct {
		id   int64
		want byte
	}{{id, wire.StateFinished}, {id + 1000, wire.StateNotFound}} {
		poller := dialFrontDoor(t, lc, ClientConfig{})
		st, err := poller.Status(tc.id)
		if err != nil {
			t.Fatalf("status of job %d as the first frame: %v", tc.id, err)
		}
		if st.JobID != tc.id || st.State != tc.want {
			t.Errorf("status of job %d = job %d state %d, want state %d", tc.id, st.JobID, st.State, tc.want)
		}
	}
	lc.Master.Drain()
	waitRun(t, lc, runErr)
}

// TestBatchRunWithoutJobsEnds: a batch run is a drain from the start, so a
// master given no job has nothing to wait for and Run returns nil as soon as
// its workers have registered.
func TestBatchRunWithoutJobsEnds(t *testing.T) {
	lc := startCluster(t, 1, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lc.Master.WaitWorkers(ctx); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := lc.Master.Run(ctx); err != nil {
		t.Fatalf("batch run without jobs: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Run returned %v after the workers registered, want within 1s", d)
	}
	checkQuiesced(t, lc.Master)
}

// TestBatchMasterAnswersClients: a batch master has the front door every
// master has, draining from the moment Run starts. A client's submission is
// rejected as draining, and its Status of a held job reports the job's phase,
// during the run and after it.
func TestBatchMasterAnswersClients(t *testing.T) {
	lc := startCluster(t, 1, Config{})
	name, params := workload.WordCount(workload.WordCountParams{Lines: 2000, InParts: 4, OutParts: 2})
	held, err := lc.Master.Submit(name, params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- lc.Master.Run(context.Background()) }()
	// Run begins the drain before the loop runs the held job's crossing, so
	// a held job past queued means the front door is draining.
	waitFor(t, "the held job admitted", func() bool {
		js, _ := lc.Master.rec.job(held.id)
		return js.Phase != cpstate.PhaseQueued
	})

	c := dialFrontDoor(t, lc, ClientConfig{})
	if _, err := c.Submit(name, params); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Errorf("submit to a batch master: err = %v, want a draining rejection", err)
	}
	st, err := c.Status(held.id)
	if err != nil {
		t.Fatalf("status of the held job: %v", err)
	}
	if st.State != wire.StateAdmitted && st.State != wire.StateFinished {
		t.Errorf("held job state = %d during the run, want admitted or finished", st.State)
	}
	waitRun(t, lc, runErr)
	if st, err := c.Status(held.id); err != nil || st.State != wire.StateFinished {
		t.Errorf("held job status after the run = %+v, %v; want finished", st, err)
	}
}

// TestFrontDoorStatusDropCounter: a subscriber whose bounded send queue is
// full loses JobStatus frames — counted, not fatal, and the link survives.
func TestFrontDoorStatusDropCounter(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	// No reader on b and a 1-frame queue: the first status parks in the
	// queue, later ones must drop.
	conn := wire.NewConnConfig(a, wire.Config{SendQueue: 1})
	defer conn.Close()
	// The frames leave through the master's gate, which counts the drops.
	m := &Master{rec: newRecorder(cpstate.New(), nil, 1, nil)}
	fd := &frontDoor{m: m, Ingest: metrics.NewIngest(nil)}
	m.fd = fd
	rj := &RemoteJob{client: conn, submitID: 1, id: 7}
	for i := 0; i < 16; i++ {
		fd.sendStatus(rj, wire.StateAdmitted, "")
	}
	if drops := fd.Ingest.StatusDrops(); drops == 0 {
		t.Fatal("no status drops counted with a full 1-frame queue")
	}
	if err := conn.SendErr(); err != nil {
		t.Fatalf("dropping statuses failed the connection: %v", err)
	}
}
