package remote

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/core"
	"ursa/internal/cpstate"
	"ursa/internal/localrt"
	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// fenceAfter arms the recorder to fence itself in the critical section of
// its k-th record since the master was built (the Generation event is the
// first), or fences it now if that record is already made.
func (r *recorder) fenceAfter(k uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state.Applied-r.applied0 >= k {
		r.fenced.Store(true)
		return
	}
	r.fenceAt = k
}

// sweepJob is one of TestFenceAtEveryEvent's two jobs.
type sweepJob struct {
	name   string
	params []byte
	canon  func([]localrt.Row) []string
	want   []string
}

// TestFenceAtEveryEvent crashes a journaled serving primary right after its
// k-th recorded event, for every k, and lets a standby take over. Each run
// submits a micro and a q1 job through a front-door client; the fenced
// primary keeps running until it stops by itself, silent, and is then
// closed. After the takeover runs the inherited backlog:
//   - every job's rows, finished on either master, equal direct execution;
//   - no (job, task) commits twice across the generations (checkQuiesced);
//   - the standby knows every job the client was acked;
//   - no agent has exited: each re-attaches or joins under generation 2.
//
// k starts at 2, the first agent's registration: fenced after the first
// event alone, the journal holds no worker, and a takeover of an empty
// registry is refused. The sweep ends with the first run that records fewer
// than k events; that run is fenced once both jobs finish.
func TestFenceAtEveryEvent(t *testing.T) {
	micro, q1 := &sweepJob{canon: sortedStrings}, &sweepJob{canon: stringify} // the query orders its rows
	micro.name, micro.params = workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
	q1.name, q1.params = workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 600})
	jobs := map[string]*sweepJob{micro.name: micro, q1.name: q1}
	for _, j := range jobs {
		j.want = j.canon(directRows(t, j.name, j.params))
	}
	fencedAfter := make(map[string]bool) // the event types a fence fell right after
	for k := uint64(2); !t.Failed(); k++ {
		var ev cpstate.Event
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) { ev = fenceRun(t, k, jobs) })
		if ev == nil {
			break
		}
		fencedAfter[fmt.Sprintf("%T", ev)] = true
	}
	for _, ev := range []cpstate.Event{
		cpstate.WorkerRegistered{}, cpstate.JobSubmitted{}, cpstate.JobAdmitted{},
		cpstate.TaskCommitted{}, cpstate.JobFinished{},
	} {
		if name := fmt.Sprintf("%T", ev); !t.Failed() && !fencedAfter[name] {
			t.Errorf("no run was fenced right after a %s", name)
		}
	}
}

// fenceRun is one run of TestFenceAtEveryEvent. It returns the event the
// fence fell right after, nil if the primary recorded fewer than k.
func fenceRun(t *testing.T, k uint64, jobs map[string]*sweepJob) cpstate.Event {
	cfg := Config{
		Workers:           2,
		Serve:             true,
		JournalDir:        t.TempDir(),
		LeaseTTL:          100 * time.Millisecond,
		SnapshotEvery:     1 << 20, // the whole history stays in the tail
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatMisses:   40,
	}
	primary, err := NewMaster(cfg)
	if err != nil {
		t.Fatalf("starting primary: %v", err)
	}
	defer primary.Close()
	primary.rec.fenceAfter(k)
	// A batch standby: its run ends once the inherited backlog has finished.
	scfg := cfg
	scfg.Serve = false
	standby, err := NewStandby(scfg)
	if err != nil {
		t.Fatalf("starting standby: %v", err)
	}
	defer standby.Close()

	// Rows by wire ID, read as a job finishes: a front-door job's store goes
	// with it.
	var mu sync.Mutex
	rows := make(map[int64][]localrt.Row)
	keep := func(rj *RemoteJob) {
		r, err := rj.ResultRows()
		if err != nil {
			t.Errorf("job %d result rows: %v", rj.id, err)
		}
		mu.Lock()
		defer mu.Unlock()
		rows[rj.id] = r
	}
	hook := primary.Sys.Core.OnJobStateChange
	primary.Sys.Core.OnJobStateChange = func(j *core.Job) {
		if rj := primary.jobs.of(j); rj != nil && j.State == core.JobFinished {
			keep(rj)
		}
		hook(j)
	}

	// Agents register in the background: a fence can drop an agent's
	// Welcome, and its Dial then returns only once the takeover welcomes it.
	type dialed struct {
		a   *agent.Agent
		err error
	}
	agents := make(chan dialed, cfg.Workers)
	for range cfg.Workers {
		go func() {
			a, err := agent.Dial(agent.Config{
				MasterAddrs:        []string{primary.Addr(), standby.Addr()},
				RegisterAttempts:   1000,
				RegisterBackoff:    5 * time.Millisecond,
				RegisterBackoffMax: 20 * time.Millisecond,
			})
			if err == nil {
				t.Cleanup(a.Kill)
			}
			agents <- dialed{a, err}
		}()
	}

	var finished atomic.Int32
	c, err := DialClient(ClientConfig{Addr: primary.Addr(), OnStatus: func(st wire.JobStatus) {
		if st.State == wire.StateFinished {
			finished.Add(1)
		}
	}})
	if err != nil {
		t.Fatalf("dialing client: %v", err)
	}
	defer c.Close()
	type ack struct {
		id  int64
		err error
	}
	acks := make(chan ack, len(jobs))
	for _, j := range jobs {
		go func() {
			id, err := c.Submit(j.name, j.params)
			acks <- ack{id, err}
		}()
	}
	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	stopped := make(chan struct{})
	go func() {
		primary.Run(pctx)
		close(stopped)
	}()

	// A run with fewer than k events is fenced once both jobs finish. The
	// fenced primary then winds down: its drain ends the run, or its last
	// worker fails on a dropped frame. Fenced before its second registration
	// its cluster never assembles, so its run never starts.
	waitFor(t, "the fence or both jobs to finish", func() bool {
		return primary.rec.fenced.Load() || int(finished.Load()) == len(jobs)
	})
	crashed := primary.rec.fenced.Load()
	primary.rec.fence()
	primary.Drain()
	waitFor(t, "the fenced primary to stop", func() bool {
		select {
		case <-stopped:
			return true
		default:
		}
		primary.mu.Lock()
		defer primary.mu.Unlock()
		return !primary.started && primary.nreg < primary.needed
	})
	pcancel()
	<-stopped
	primary.Close()
	var acked []int64
	for range jobs {
		if a := <-acks; a.err == nil {
			acked = append(acked, a.id)
		}
	}
	_, events := replayJournal(t, cfg.JournalDir)
	var last cpstate.Event
	if crashed {
		if len(events) != int(k) {
			t.Fatalf("the primary journaled %d events, want the %d before its fence", len(events), k)
		}
		last = events[k-1]
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tm, err := standby.Takeover(ctx)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	defer tm.Close()
	for _, id := range acked {
		if _, ok := tm.rec.job(id); !ok {
			t.Errorf("the client was acked job %d, which the standby does not know", id)
		}
	}
	exited := make(chan error, cfg.Workers)
	var all []*agent.Agent
	for range cfg.Workers {
		d := <-agents
		if d.err != nil {
			t.Fatalf("an agent never registered: %v", d.err)
		}
		all = append(all, d.a)
		go func() { exited <- d.a.Wait() }()
	}
	waitFor(t, "every agent to attach under generation 2", func() bool {
		for _, a := range all {
			if a.Gen() != 2 {
				return false
			}
		}
		return true
	})
	select {
	case err := <-exited:
		t.Fatalf("an agent exited: %v", err)
	default:
	}

	if err := tm.Run(ctx); err != nil {
		t.Fatalf("takeover run: %v", err)
	}
	for _, rj := range tm.Jobs() {
		keep(rj)
	}
	for id, r := range rows {
		js, ok := tm.rec.job(id)
		if !ok {
			t.Errorf("job %d finished, but the journal does not hold it", id)
			continue
		}
		if j := jobs[js.Workload]; !reflect.DeepEqual(j.canon(r), j.want) {
			t.Errorf("job %d (%s): rows diverge from direct execution\ngot:  %v\nwant: %v", id, j.name, j.canon(r), j.want)
		}
	}
	checkQuiesced(t, tm) // closes tm: replay == final state, at-most-once commits across generations
	tm.rec.read(func(st *cpstate.State) {
		for id, js := range st.Jobs {
			if js.Phase != cpstate.PhaseFinished {
				t.Errorf("job %d ended in phase %d, want finished", id, js.Phase)
			}
		}
	})
	return last
}

// TestFramesLeaveThroughSend: Master.send is the one place the master queues
// a frame on a wire.Conn, so the fence silences every frame to an agent or a
// client. A .Send or .TrySend call anywhere else in the package's non-test
// files fails here, unless it crosses onto the control loop (Drv.Send).
// client.go is the client's side of the wire.
func TestFramesLeaveThroughSend(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	gates := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") || path == "client.go" {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Name.Name == "send" && fn.Recv != nil && types.ExprString(fn.Recv.List[0].Type) == "*Master" {
				gates++
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Send" && sel.Sel.Name != "TrySend" {
					return true
				}
				if recv, ok := sel.X.(*ast.SelectorExpr); ok && recv.Sel.Name == "Drv" {
					return true
				}
				t.Errorf("%s: %s.%s in %s sends past Master.send",
					fset.Position(call.Pos()), types.ExprString(sel.X), sel.Sel.Name, fn.Name.Name)
				return true
			})
		}
	}
	if gates != 1 {
		t.Fatalf("found %d Master.send methods, want 1", gates)
	}
}
