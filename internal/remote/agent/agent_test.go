package agent

// The agent against a fake master behind the Dial seam: every control
// connection is one end of a net.Pipe whose other end the test drives frame by
// frame, so registration, re-registration and abort handling are checked
// without a master, a scheduler or a clock. Only the agent's shuffle listener
// is a real (loopback) socket, and nothing dials it.

import (
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ursa/internal/remote/workload"
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
	c := <-f.conns
	reg, ok := read(t, c).(wire.Register)
	if !ok {
		t.Fatal("first frame on a control connection is not a Register")
	}
	c.Send(wire.Welcome{WorkerID: id, Gen: gen, HeartbeatMicros: time.Hour.Microseconds()})
	return reg, c
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
	a.sem <- struct{}{} // take the one core: both dispatches stay in flight
	c.Send(wire.Dispatch{JobID: 1, MTID: swallowed, Seq: 10})
	c.Send(wire.Dispatch{JobID: 1, MTID: kept, Seq: 11})
	c.Send(wire.Abort{JobID: 1, MTID: swallowed, Seq: 10})
	c.Send(wire.Abort{JobID: 1, MTID: kept, Seq: 99}) // a stale abort, for an earlier dispatch
	// A Prepare that fails is answered from the read loop, behind the Aborts:
	// its JobReady says both were handled. It is also the first frame since
	// the Welcome: the Prepare that succeeded answered nothing.
	c.Send(wire.Prepare{JobID: 2, Workload: "no-such-workload"})
	if m, ok := read(t, c).(wire.JobReady); !ok || m.JobID != 2 || m.Err == "" {
		t.Fatalf("got %+v, want the failed Prepare's JobReady for job 2", m)
	}
	<-a.sem

	if m, ok := read(t, c).(wire.Complete); !ok || m.MTID != kept || m.Seq != 11 || m.Err != "" {
		t.Fatalf("got %+v, want the clean completion of monotask %d seq 11", m, kept)
	}
	// Once nothing is in flight the aborted dispatch has been retired, and the
	// next frame on the wire is a later dispatch's completion, not its own.
	a.drain()
	c.Send(wire.Dispatch{JobID: 1, MTID: swallowed, Seq: 12})
	if m, ok := read(t, c).(wire.Complete); !ok || m.MTID != swallowed || m.Seq != 12 || m.Err != "" {
		t.Fatalf("got %+v, want the completion of monotask %d seq 12", m, swallowed)
	}
}
