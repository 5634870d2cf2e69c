package remote

// One frame per placed task: the master's Task and the agent's TaskDone are
// the only execution frames, a network monotask's task-internal output never
// reaches the master, and a task cut short on one agent runs whole on
// another.

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/dataset"
	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// frameCounter counts the frames, and their payload bytes, by type byte on
// every control connection the agents dial.
type frameCounter struct {
	mu     sync.Mutex
	frames map[byte]int
	bytes  map[byte]int
}

func newFrameCounter() *frameCounter {
	return &frameCounter{frames: make(map[byte]int), bytes: make(map[byte]int)}
}

func (fc *frameCounter) dial(addr string) (net.Conn, error) {
	nc, err := wire.NetDial(addr)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: nc, fc: fc}, nil
}

func (fc *frameCounter) read() (frames, bytes map[byte]int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	frames, bytes = make(map[byte]int), make(map[byte]int)
	for k, v := range fc.frames {
		frames[k] = v
	}
	for k, v := range fc.bytes {
		bytes[k] = v
	}
	return frames, bytes
}

// frameParser follows one direction of a connection's byte stream frame by
// frame: a 4-byte length, the type byte, the payload.
type frameParser struct {
	hdr  [4]byte
	got  int // header bytes read
	left int // bytes of the current frame still to come
	typ  byte
}

func (p *frameParser) feed(fc *frameCounter, b []byte) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	for len(b) > 0 {
		if p.left == 0 {
			n := copy(p.hdr[p.got:], b)
			p.got += n
			b = b[n:]
			if p.got == 4 {
				p.got, p.left, p.typ = 0, int(binary.BigEndian.Uint32(p.hdr[:])), 0
			}
			continue
		}
		if p.typ == 0 {
			p.typ = b[0]
			fc.frames[p.typ]++
			fc.bytes[p.typ] += p.left - 1
			b, p.left = b[1:], p.left-1
			continue
		}
		n := min(p.left, len(b))
		b, p.left = b[n:], p.left-n
	}
}

type countedConn struct {
	net.Conn
	fc     *frameCounter
	rd, wr frameParser
}

func (c *countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.rd.feed(c.fc, b[:n])
	return n, err
}

// Write counts before it writes: the master may read a frame, and its run
// end, before the write returns.
func (c *countedConn) Write(b []byte) (int, error) {
	c.wr.feed(c.fc, b)
	return c.Conn.Write(b)
}

// TestExecutionFrameBudget counts, per job on a 2-agent loopback, the
// execution frames between master and agents — one Task per placed task and
// one TaskDone per finished task — and the bytes of the TaskDone frames the
// master ingests. micro is 6 monotasks in 4 tasks and sql_analytics query 1
// at 20 000 rows (shuffle-sql's job) 28 in 16; with a frame per monotask each
// way they were 12 and 56 frames, and q1 shipped every network monotask's
// output, 1 168 558 bytes of blobs, to the master. Counts, not time: it
// repeats on any box.
func TestExecutionFrameBudget(t *testing.T) {
	for _, c := range []struct {
		label         string
		jobs          int
		frames, bytes int // per job
		name          string
		params        []byte
	}{
		{"micro", 4, 8, 2_000, "", nil},
		{"q1", 2, 32, 600_000, "", nil},
	} {
		switch c.label {
		case "micro":
			c.name, c.params = workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
		case "q1":
			c.name, c.params = workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 20000})
		}
		fc := newFrameCounter()
		lc := startClusterWith(t, 2, Config{}, agent.Config{Dial: fc.dial, ShuffleDial: wire.NetDial})
		for i := 0; i < c.jobs; i++ {
			if _, err := lc.Master.Submit(c.name, c.params); err != nil {
				t.Fatal(err)
			}
		}
		runCluster(t, lc)
		frames, bytes := fc.read()
		exec := frames[wire.TTask] + frames[wire.TTaskDone]
		if got := exec / c.jobs; got > c.frames || exec%c.jobs != 0 {
			t.Errorf("%s: %d execution frames over %d jobs (%v), budget %d per job", c.label, exec, c.jobs, frames, c.frames)
		}
		if got := bytes[wire.TTaskDone] / c.jobs; got > c.bytes {
			t.Errorf("%s: the master ingested %d bytes of TaskDone frames per job, budget %d", c.label, got, c.bytes)
		}
		t.Logf("%s: %d execution frames, %d TaskDone bytes per job", c.label, exec/c.jobs, bytes[wire.TTaskDone]/c.jobs)
	}
}

// gatedReduce is micro's shape — generated ints, keyed, summed by key into
// one partition — with the post-shuffle CPU monotask passing through gate.
const gatedReduce = "remote-test-gated-reduce"

// gate holds the first post-shuffle CPU monotask to reach it until the test
// lets it go: the network monotask of its task has run by then.
var gate struct {
	entered  chan struct{}
	release  chan struct{}
	once     sync.Once
	disarmed atomic.Bool
}

func init() {
	workload.Register(gatedReduce, func([]byte) (*workload.BuiltJob, error) {
		sess := dataset.NewSession()
		in := dataset.Generate(sess, 400, 4, func(part, parts int) []int {
			var rows []int
			for i := part; i < 400; i += parts {
				rows = append(rows, i)
			}
			return rows
		})
		keyed := dataset.Map(in, "key", func(v int) dataset.Pair[string, int] {
			return dataset.Pair[string, int]{Key: fmt.Sprintf("k%d", v%5), Val: v}
		})
		sums := dataset.ReduceByKey(keyed, "sum", 1, func(a, b int) int { return a + b })
		gated := dataset.Map(sums, "gate", func(p dataset.Pair[string, int]) dataset.Pair[string, int] {
			if !gate.disarmed.Load() {
				gate.once.Do(func() {
					close(gate.entered)
					<-gate.release
				})
			}
			return p
		})
		plan, err := sess.Graph().Build()
		return &workload.BuiltJob{
			Spec: core.JobSpec{Name: gatedReduce, Graph: sess.Graph()},
			Plan: plan, Inputs: sess.InputBindings(), Output: gated.Dag(),
		}, err
	})
}

// TestKillBetweenNetworkAndCPU kills the agent running a shuffle task after
// its network monotask ran and while its CPU monotask runs: the master holds
// no record of either, since a task's records travel together, and the
// network monotask's output never left the dead agent. The task runs whole
// on the other agent, and the rows equal direct execution.
func TestKillBetweenNetworkAndCPU(t *testing.T) {
	gate.entered, gate.release = make(chan struct{}), make(chan struct{})
	gate.once, gate.disarmed = sync.Once{}, atomic.Bool{}
	defer gate.disarmed.Store(true)
	defer func() {
		select {
		case <-gate.release:
		default:
			close(gate.release)
		}
	}()
	gate.disarmed.Store(true)
	want := directRows(t, gatedReduce, nil)
	gate.disarmed.Store(false)

	lc := startCluster(t, 2, Config{})
	job, err := lc.Master.Submit(gatedReduce, nil)
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		runErr <- lc.Master.Run(ctx)
	}()
	select {
	case <-gate.entered:
	case err := <-runErr:
		t.Fatalf("run ended before the gate: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no CPU monotask reached the gate")
	}
	// The gated monotask's task is the job's only post-shuffle task: find
	// its worker on the loop, and kill that agent.
	worker := make(chan int, 1)
	lc.Master.Sys.Drv.Send(func() {
		var task *dag.Task
		for _, mt := range job.Live.Core.Plan.RealMonotasks() {
			if strings.HasSuffix(mt.OpName(), "+gate") {
				task = mt.Task
			}
		}
		worker <- task.Worker
	})
	victim := <-worker
	if victim < 0 {
		t.Fatal("the gated task is not placed")
	}
	lc.Agents[victim].Kill()
	close(gate.release)
	waitRun(t, lc, runErr)

	if got := lc.Master.members().failed; got != 1 {
		t.Fatalf("expected exactly 1 worker failure, got %d", got)
	}
	got, err := job.ResultRows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
		t.Errorf("rows after the kill differ from direct execution:\n got %v\nwant %v", stringify(got), stringify(want))
	}
}
