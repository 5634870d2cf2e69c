package agent

// The agent against a fake master behind the Dial seam: every control
// connection is one end of a net.Pipe whose other end the test drives frame by
// frame, so registration, re-registration, task and abort handling are
// checked without a master, a scheduler or a clock. Only the agent's shuffle
// listener is a real (loopback) socket, and nothing dials it: a canonical
// store, where a test needs one, answers over a pipe too.

import (
	"bufio"
	"errors"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ursa/internal/dag"
	"ursa/internal/localrt"
	"ursa/internal/mtqueue"
	"ursa/internal/remote/shuffle"
	"ursa/internal/remote/workload"
	"ursa/internal/resource"
	"ursa/internal/wire"
)

// fakeMaster records every dial and refuses it unless accept says otherwise;
// an accepted dial's server end is queued on conns.
type fakeMaster struct {
	accept func(n int) bool // n counts dials from 0; nil refuses all

	mu     sync.Mutex
	dialed []string
	conns  chan *wire.Conn
}

func newFakeMaster(accept func(n int) bool) *fakeMaster {
	return &fakeMaster{accept: accept, conns: make(chan *wire.Conn, 1)}
}

func (f *fakeMaster) dial(addr string) (net.Conn, error) {
	f.mu.Lock()
	n := len(f.dialed)
	f.dialed = append(f.dialed, addr)
	f.mu.Unlock()
	if f.accept == nil || !f.accept(n) {
		return nil, errors.New("connection refused")
	}
	client, server := net.Pipe()
	f.conns <- wire.NewConnConfig(server, wire.Config{})
	return client, nil
}

// welcome reads the Register off the next accepted connection and answers it.
// The heartbeat period it hands out never elapses within a test.
func (f *fakeMaster) welcome(t *testing.T, id int32, gen int64) (wire.Register, *wire.Conn) {
	t.Helper()
	return f.welcomeWith(t, wire.Welcome{WorkerID: id, Gen: gen})
}

// welcomeWith is welcome answering w, queue limits and all.
func (f *fakeMaster) welcomeWith(t *testing.T, w wire.Welcome) (wire.Register, *wire.Conn) {
	t.Helper()
	c := <-f.conns
	reg, ok := read(t, c).(wire.Register)
	if !ok {
		t.Fatal("first frame on a control connection is not a Register")
	}
	w.HeartbeatMicros = time.Hour.Microseconds()
	c.Send(w)
	return reg, c
}

// task is the Task frame of one monotask, dispatched under seq.
func task(job int64, mt int32, seq uint64) wire.Task {
	return wire.Task{JobID: job, Seq: seq, MTs: []wire.Dispatch{{JobID: job, MTID: mt}}}
}

// taskDone reads the next frame, which must be a TaskDone of one record, and
// returns that record with the frame's seq in its Seq.
func taskDone(t *testing.T, c *wire.Conn) wire.Complete {
	t.Helper()
	m := read(t, c)
	td, ok := m.(wire.TaskDone)
	if !ok || len(td.Records) != 1 {
		t.Fatalf("got %+v, want a TaskDone of one record", m)
	}
	rec := td.Records[0]
	rec.Seq = td.Seq
	return rec
}

// hold takes n slots of kind k in the agent's runner, as monotasks running
// elsewhere would: a task of its own (job -1) starts n monotasks that nobody
// runs. release aborts that task, settles them and starts what they held up.
func hold(a *Agent, k resource.Kind, n int) (release func()) {
	t := &mtqueue.Task[taskData]{Job: -1, Seq: math.MaxUint64, V: taskData{d: make([]wire.Dispatch, n)}}
	task := &dag.Task{Stage: &dag.Stage{}}
	for i := range n {
		t.MTs = append(t.MTs, &dag.Monotask{Kind: k, Task: task})
		t.V.d[i].EstInput = 1 << 62 // never small enough to bypass
	}
	a.mu.Lock()
	held := a.runner.Start(t).Start
	a.mu.Unlock()
	if len(held) != n {
		panic("no free slots to hold")
	}
	return func() {
		a.mu.Lock()
		a.runner.Abort(t.Job, t.Seq)
		a.mu.Unlock()
		for _, run := range held {
			a.mu.Lock()
			s := a.runner.Settle(run, nil)
			a.mu.Unlock()
			a.launch(s)
		}
	}
}

// read returns the next frame the agent sent; the bound turns a frame that
// never comes into a failure instead of a hung test.
func read(t *testing.T, c *wire.Conn) wire.Msg {
	t.Helper()
	m, err := c.ReadMsgTimeout(10 * time.Second)
	if err != nil {
		t.Fatalf("fake master read: %v", err)
	}
	return m
}

// dialAsync runs Dial beside the test, which plays the master's half of the
// handshake meanwhile. A failed Dial is reported and delivers nil.
func dialAsync(t *testing.T, cfg Config) <-chan *Agent {
	out := make(chan *Agent, 1)
	go func() {
		a, err := Dial(cfg)
		if err != nil {
			t.Errorf("Dial: %v", err)
		}
		out <- a
	}()
	return out
}

func TestRegisterWalksAddrsBacksOffAndGivesUp(t *testing.T) {
	for _, attempts := range []int{5, 1} {
		fm := newFakeMaster(nil)
		var sleeps []time.Duration
		a, err := Dial(Config{
			MasterAddrs: []string{"primary", "standby"}, Dial: fm.dial,
			RegisterAttempts: attempts, RegisterBackoff: time.Millisecond, RegisterBackoffMax: 2 * time.Millisecond,
			Logf: func(format string, args ...any) {
				if strings.Contains(format, "retrying in") {
					sleeps = append(sleeps, args[2].(time.Duration))
				}
			},
		})
		if err == nil {
			a.Kill()
			t.Fatalf("%d attempts: Dial succeeded against a master that refuses every connection", attempts)
		}
		want := []string{"primary", "standby", "primary", "standby", "primary"}[:attempts]
		if !slices.Equal(fm.dialed, want) {
			t.Errorf("%d attempts: dialed %v, want %v", attempts, fm.dialed, want)
		}
		// Jittered exponential backoff: [d/2, d) for d = 1 ms, then the 2 ms cap.
		if len(sleeps) != attempts-1 {
			t.Fatalf("%d attempts: backed off %d times, want %d", attempts, len(sleeps), attempts-1)
		}
		for i, s := range sleeps {
			d := 2 * time.Millisecond
			if i == 0 {
				d = time.Millisecond
			}
			if s < d/2 || s >= d {
				t.Errorf("backoff %d was %v, want within [%v, %v)", i, s, d/2, d)
			}
		}
	}
}

func TestDialNeedsAMasterAddress(t *testing.T) {
	if a, err := Dial(Config{}); err == nil {
		a.Kill()
		t.Fatal("Dial with no master address succeeded")
	}
}

func TestReRegistrationCarriesWorkerIDAndGeneration(t *testing.T) {
	// Dial 1 is the re-registration's first attempt, at the dead primary.
	fm := newFakeMaster(func(n int) bool { return n != 1 })
	joined := dialAsync(t, Config{
		MasterAddrs: []string{"primary", "standby"}, Dial: fm.dial,
		RegisterBackoff: time.Millisecond, RegisterBackoffMax: time.Millisecond,
	})
	reg, primary := fm.welcome(t, 3, 1)
	if reg.WorkerID != -1 {
		t.Errorf("fresh registration carried worker %d, want -1", reg.WorkerID)
	}
	a := <-joined
	if a == nil {
		t.FailNow()
	}
	defer a.Kill()
	if a.ID() != 3 || a.Gen() != 1 {
		t.Errorf("agent is worker %d under gen %d, want 3 under 1", a.ID(), a.Gen())
	}

	primary.Close() // the primary dies; a standby is configured, so the agent re-registers
	reg, standby := fm.welcome(t, 3, 2)
	if reg.WorkerID != 3 {
		t.Errorf("re-registration carried worker %d, want 3", reg.WorkerID)
	}
	standby.Send(wire.Shutdown{})
	if err := a.Wait(); err != nil {
		t.Errorf("agent exit after Shutdown: %v", err)
	}
	if a.Gen() != 2 {
		t.Errorf("after re-attaching, gen %d, want 2", a.Gen())
	}
	if want := []string{"primary", "primary", "standby"}; !slices.Equal(fm.dialed, want) {
		t.Errorf("dialed %v, want %v", fm.dialed, want)
	}
}

func TestAbortMatchesOnSeq(t *testing.T) {
	fm := newFakeMaster(func(int) bool { return true })
	joined := dialAsync(t, Config{MasterAddrs: []string{"master"}, Dial: fm.dial, Cores: 1})
	_, c := fm.welcome(t, 0, 1)
	a := <-joined
	if a == nil {
		t.FailNow()
	}
	defer a.Kill()

	name, params := workload.Micro(workload.MicroParams{})
	bj, err := workload.Build(name, params)
	if err != nil {
		t.Fatal(err)
	}
	var roots []int32 // monotasks that read only the job's seeded input
	for _, mt := range bj.Plan.RealMonotasks() {
		if len(mt.Ins) == 0 {
			roots = append(roots, int32(mt.ID))
		}
	}
	if len(roots) < 2 {
		t.Fatalf("micro plan has %d root monotasks, need 2", len(roots))
	}
	swallowed, kept := roots[0], roots[1]

	c.Send(wire.Prepare{JobID: 1, Workload: name, Params: params})
	release := hold(a, resource.CPU, 1) // take the one core: both tasks stay in flight
	c.Send(task(1, swallowed, 10))
	c.Send(task(1, kept, 11))
	c.Send(wire.Abort{JobID: 1, Seq: 10})
	c.Send(wire.Abort{JobID: 1, Seq: 99}) // a stale abort, for an earlier dispatch
	c.Send(wire.Abort{JobID: 2, Seq: 11}) // the kept task's seq under another job
	// A Task for a job never prepared here is completed from the read loop,
	// behind the Aborts: its TaskDone says both were handled. It is also the
	// first frame since the Welcome: the Prepare answered nothing.
	c.Send(task(2, 0, 1))
	if m := taskDone(t, c); m.JobID != 2 || m.Err == "" {
		t.Fatalf("got %+v, want the failed record of job 2's task", m)
	}
	release()

	if m := taskDone(t, c); m.MTID != kept || m.Seq != 11 || m.Err != "" {
		t.Fatalf("got %+v, want the clean record of monotask %d seq 11", m, kept)
	}
	// Once nothing is in flight the aborted task has been retired, and the
	// next frame on the wire is a later task's TaskDone, not its own.
	a.drain()
	c.Send(task(1, swallowed, 12))
	if m := taskDone(t, c); m.MTID != swallowed || m.Seq != 12 || m.Err != "" {
		t.Fatalf("got %+v, want the record of monotask %d seq 12", m, swallowed)
	}
}

// joined joins an agent to a fake master that welcomes it as worker 0,
// returning the agent and the master's end of the control connection.
func joined(t *testing.T, cfg Config) (*Agent, *wire.Conn) {
	t.Helper()
	fm := newFakeMaster(func(int) bool { return true })
	cfg.MasterAddrs, cfg.Dial = []string{"master"}, fm.dial
	joining := dialAsync(t, cfg)
	_, c := fm.welcome(t, 0, 1)
	a := <-joining
	if a == nil {
		t.FailNow()
	}
	t.Cleanup(a.Kill)
	return a, c
}

// prepared joins an agent and prepares micro as job 1 on it, returning the
// agent, the master's end of the control connection and the job's plan as
// the agent built it.
func prepared(t *testing.T, cfg Config) (*Agent, *wire.Conn, *workload.BuiltJob) {
	t.Helper()
	a, c := joined(t, cfg)
	name, params := workload.Micro(workload.MicroParams{})
	bj, err := workload.Build(name, params)
	if err != nil {
		t.Fatal(err)
	}
	c.Send(wire.Prepare{JobID: 1, Workload: name, Params: params})
	return a, c, bj
}

// TestFallbackServedFromRegisteredMaster: a monotask whose peer refuses the
// dial reads the partition from the canonical store at the address the agent
// registered with, and its record reports the one fallback.
func TestFallbackServedFromRegisteredMaster(t *testing.T) {
	name, params := workload.Micro(workload.MicroParams{})
	store, err := workload.Build(name, params)
	if err != nil {
		t.Fatal(err)
	}
	// The master's store holds every contribution of the job.
	rt := localrt.New(store.Plan)
	rt.SetCodec(workload.Codec{})
	for _, in := range store.Inputs {
		rt.SetInput(in.Dataset, in.Rows)
	}
	for _, mt := range store.Plan.RealMonotasks() {
		if err := rt.Exec(mt); err != nil {
			t.Fatalf("store exec %v: %v", mt, err)
		}
	}
	srv := shuffle.NewServer(shuffle.ServerConfig{}, func(job int64) *localrt.Runtime {
		if job == 1 {
			return rt
		}
		return nil
	}, nil)
	t.Cleanup(srv.Close)

	var (
		mu     sync.Mutex
		dialed []string
	)
	_, c, bj := prepared(t, Config{Cores: 1, FetchRetries: -1, ShuffleDial: func(addr string) (net.Conn, error) {
		mu.Lock()
		dialed = append(dialed, addr)
		mu.Unlock()
		if addr != "master" {
			return nil, errors.New("connection refused")
		}
		client, server := net.Pipe()
		go srv.ServeConn(server, bufio.NewReader(server), nil)
		return client, nil
	}})

	// A monotask that reads one partition another monotask produced.
	var reader int32 = -1
	var spec wire.FetchSpec
	for _, mt := range bj.Plan.RealMonotasks() {
		if parts := localrt.InputParts(bj.Plan, mt); len(parts) == 1 && parts[0].Dataset.Creator != nil {
			reader = int32(mt.ID)
			spec = wire.FetchSpec{DatasetID: int32(parts[0].Dataset.ID), Part: int32(parts[0].Part), Origin: 1, Addr: "peer"}
			break
		}
	}
	if reader < 0 {
		t.Fatal("micro plan has no monotask reading one produced partition")
	}
	f := task(1, reader, 7)
	f.MTs[0].Fetches = []wire.FetchSpec{spec}
	c.Send(f)
	if m := taskDone(t, c); m.Seq != 7 || m.Err != "" || m.FetchFallbacks != 1 {
		t.Fatalf("got %+v, want a clean record of seq 7 with one fetch fallback", m)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{"peer", "master"}; !slices.Equal(dialed, want) {
		t.Errorf("shuffle dials %v, want %v", dialed, want)
	}
}

// TestBadDispatchCompletesWithErr: a task the agent cannot run — its job was
// never prepared here, its job's build failed, or it names a monotask the
// plan does not have — still completes under its seq, every monotask with
// Err set, so the master can retire it. Behind a failed Prepare, Err carries
// the build's error.
func TestBadDispatchCompletesWithErr(t *testing.T) {
	_, c, bj := prepared(t, Config{Cores: 1})
	c.Send(wire.Prepare{JobID: 3, Workload: "no-such-workload"})
	for _, f := range []wire.Task{
		task(2, 0, 1),
		task(1, int32(len(bj.Plan.Monotasks)), 2),
		task(1, -1, 3),
		task(3, 0, 4),
		{JobID: 1, Seq: 5, MTs: []wire.Dispatch{{JobID: 1, MTID: 0}, {JobID: 1, MTID: -1}}},
	} {
		c.Send(f)
		m := read(t, c)
		td, ok := m.(wire.TaskDone)
		if !ok || td.JobID != f.JobID || td.Seq != f.Seq || len(td.Records) != len(f.MTs) {
			t.Fatalf("task %+v: got %+v, want its TaskDone with a record per monotask", f, m)
		}
		for i, rec := range td.Records {
			if rec.MTID != f.MTs[i].MTID || rec.Err == "" {
				t.Errorf("task %+v: record %+v, want monotask %d with Err set", f, rec, f.MTs[i].MTID)
			} else if f.JobID == 3 && !strings.Contains(rec.Err, `unknown workload "no-such-workload"`) {
				t.Errorf("task behind a failed Prepare completed with %q, want the build's error", rec.Err)
			}
		}
	}
}
