package remote

// Work budgets on a 2-agent loopback: counts, not times, so they repeat on
// any box. A journaled run records one event per committed task, and an
// agent fetches each partition it reads once, however many of its monotasks
// read it at the same time.

import (
	"encoding/binary"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"ursa/internal/cpstate"
	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// eventJob returns the job an event names, false for one that names none.
func eventJob(ev cpstate.Event) (int64, bool) {
	switch ev := ev.(type) {
	case cpstate.JobSubmitted:
		return ev.JobID, true
	case cpstate.JobAdmitted:
		return ev.JobID, true
	case cpstate.JobFinished:
		return ev.JobID, true
	case cpstate.JobCancelled:
		return ev.JobID, true
	case cpstate.TaskCommitted:
		return ev.JobID, true
	case cpstate.Commit:
		return ev.JobID, true
	case cpstate.Placed:
		return ev.JobID, true
	}
	return 0, false
}

// TestJournalEventBudget replays the journal of a 2-agent run and counts the
// events that name each job: its submission, admission and finish, and one
// TaskCommitted per task. micro is 6 monotasks in 4 tasks and sql_analytics
// query 1 at 20 000 rows 28 in 16; with a commit per monotask they journaled
// 9 and 31 events per job. Every TaskCommitted names every monotask of its
// task, so a fence can fall between tasks, never inside one.
func TestJournalEventBudget(t *testing.T) {
	for _, c := range []struct {
		label  string
		events int // per job
		name   string
		params []byte
	}{
		{"micro", 7, "", nil},
		{"q1", 19, "", nil},
	} {
		switch c.label {
		case "micro":
			c.name, c.params = workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1})
		case "q1":
			c.name, c.params = workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 20000})
		}
		bj, err := workload.Describe(c.name, c.params)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		lc := startCluster(t, 2, Config{JournalDir: dir, SnapshotEvery: 1 << 20})
		const jobs = 3
		for i := 0; i < jobs; i++ {
			if _, err := lc.Master.Submit(c.name, c.params); err != nil {
				t.Fatal(err)
			}
		}
		runCluster(t, lc) // closes the journaled master
		_, events := replayJournal(t, dir)
		perJob := make(map[int64]int)
		for _, ev := range events {
			if job, ok := eventJob(ev); ok {
				perJob[job]++
			}
			tc, ok := ev.(cpstate.TaskCommitted)
			if !ok {
				continue
			}
			var want, got []int32
			for _, mt := range bj.Plan.Tasks[tc.Task].Monotasks {
				want = append(want, int32(mt.ID))
			}
			for _, m := range tc.MTs {
				got = append(got, m.MTID)
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s: job %d task %d committed monotasks %v, want all of %v", c.label, tc.JobID, tc.Task, got, want)
			}
		}
		if len(perJob) != jobs {
			t.Fatalf("%s: the journal names %d jobs, want %d", c.label, len(perJob), jobs)
		}
		for job, n := range perJob {
			if n > c.events {
				t.Errorf("%s: job %d journaled %d events, budget %d", c.label, job, n, c.events)
			}
		}
		t.Logf("%s: %v events per job", c.label, perJob)
	}
}

// fetchCounter counts the Fetch frames one agent sends, by (job, dataset,
// part, origin), on every shuffle connection it dials.
type fetchCounter struct {
	mu     sync.Mutex
	counts map[wire.Fetch]int
}

func (fc *fetchCounter) dial(addr string) (net.Conn, error) {
	nc, err := wire.NetDial(addr)
	if err != nil {
		return nil, err
	}
	return &fetchConn{Conn: nc, fc: fc}, nil
}

// fetchConn parses the frames written to it, a 4-byte length, the type byte
// and the payload each, and counts the Fetch frames among them.
type fetchConn struct {
	net.Conn
	fc  *fetchCounter
	buf []byte
}

func (c *fetchConn) Write(b []byte) (int, error) {
	c.buf = append(c.buf, b...)
	for len(c.buf) >= 4 {
		n := 4 + int(binary.BigEndian.Uint32(c.buf))
		if len(c.buf) < n {
			break
		}
		if c.buf[4] == wire.TFetch {
			if f, err := wire.DecodeFetch(c.buf[5:n]); err == nil {
				c.fc.mu.Lock()
				c.fc.counts[f]++
				c.fc.mu.Unlock()
			}
		}
		c.buf = c.buf[n:]
	}
	return c.Conn.Write(b)
}

// TestConcurrentReadersFetchOnce runs four q1 jobs at once on two agents and
// counts each agent's Fetch frames: the network monotasks that read one
// partition of one origin at the same time share one fetch of it, so no
// agent asks for a (job, dataset, part, origin) twice. Fetch retries are off,
// so a frame sent is a fetch made.
func TestConcurrentReadersFetchOnce(t *testing.T) {
	counters := []*fetchCounter{{counts: make(map[wire.Fetch]int)}, {counts: make(map[wire.Fetch]int)}}
	lc, err := StartLocalClusterFunc(2, Config{HeartbeatInterval: 50 * time.Millisecond, HeartbeatMisses: 8},
		func(i int) agent.Config {
			return agent.Config{Cores: 2, ShuffleDial: counters[i].dial, FetchRetries: -1}
		})
	if err != nil {
		t.Fatalf("starting local cluster: %v", err)
	}
	t.Cleanup(lc.Close)
	name, params := workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 20000})
	for i := 0; i < 4; i++ {
		if _, err := lc.Master.Submit(name, params); err != nil {
			t.Fatal(err)
		}
	}
	runCluster(t, lc)
	total, keys := 0, 0
	for id, fc := range counters {
		fc.mu.Lock()
		keys += len(fc.counts)
		for key, n := range fc.counts {
			total += n
			if n > 1 {
				t.Errorf("agent %d fetched job %d ds %d part %d from origin %d %d times, want once",
					id, key.JobID, key.DatasetID, key.Part, key.Origin, n)
			}
		}
		fc.mu.Unlock()
	}
	if total == 0 {
		t.Fatal("no agent fetched anything: the test shows nothing")
	}
	t.Logf("%d Fetch frames for %d (agent, job, dataset, part, origin) keys", total, keys)
}
