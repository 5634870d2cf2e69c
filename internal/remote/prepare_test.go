package remote

// Where a job's plan is built: a worker learns a job from its first dispatch,
// so only the agents that run a job's work build it, and a build that fails
// there reaches the master as the failed completion of that dispatch. Where
// its inputs are made: by the monotasks that read them, never at the master.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ursa/internal/core"
	"ursa/internal/dataset"
	"ursa/internal/remote/workload"
)

// oneTask is a workload of one task with one partition, its params the one
// input row: every job of it runs on exactly one worker. Its builder counts
// its calls, and fails with oneTaskRefusal while refuseOneTask is set.
const (
	oneTask        = "remote-test-one-task"
	oneTaskRefusal = "remote-test builder refused"
)

var (
	oneTaskBuilds atomic.Int64
	refuseOneTask atomic.Bool
)

// countedInput is a workload of one generated input over 4 partitions,
// summed by key into 2. Its params are "rows/tag": the input's row count, and
// a tag that only tells jobs apart. Its generator counts the rows it makes in
// generatedRows.
const countedInput = "remote-test-counted-input"

var generatedRows atomic.Int64

func init() {
	workload.Register(countedInput, func(params []byte) (*workload.BuiltJob, error) {
		rows, _, _ := strings.Cut(string(params), "/")
		n, err := strconv.Atoi(rows)
		if err != nil {
			return nil, err
		}
		sess := dataset.NewSession()
		in := dataset.Generate(sess, n, 4, func(part, parts int) []int {
			var rows []int
			for i := part; i < n; i += parts {
				rows = append(rows, i)
			}
			generatedRows.Add(int64(len(rows)))
			return rows
		})
		keyed := dataset.Map(in, "key", func(v int) dataset.Pair[string, int] {
			return dataset.Pair[string, int]{Key: fmt.Sprintf("k%d", v%5), Val: v}
		})
		sums := dataset.ReduceByKey(keyed, "sum", 2, func(a, b int) int { return a + b })
		plan, err := sess.Graph().Build()
		return &workload.BuiltJob{
			Spec: core.JobSpec{Name: countedInput, Graph: sess.Graph(), MemEstimate: 1},
			Plan: plan, Inputs: sess.InputBindings(), Output: sums.Dag(),
		}, err
	})
}

// TestInputsGeneratedWhereRead counts generated input rows: K jobs of
// distinct identities, each of an N-row generated input, on a 2-agent
// cluster make K*N rows in all, each partition once, by the monotask that
// reads it. The master makes none: it binds the input sizes only. Built at
// the master and in each agent's Prepare, they would make up to 3*K*N. Every
// job's rows equal direct execution.
func TestInputsGeneratedWhereRead(t *testing.T) {
	const K, N = 6, 2000
	params := func(k int) []byte { return []byte(fmt.Sprintf("%d/job-%d", N, k)) }
	lc := startCluster(t, 2, Config{})
	before := generatedRows.Load()
	var jobs []*RemoteJob
	for k := 0; k < K; k++ {
		job, err := lc.Master.Submit(countedInput, params(k))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		jobs = append(jobs, job)
	}
	if n := generatedRows.Load() - before; n != 0 {
		t.Fatalf("the master generated %d input rows for %d jobs, want 0", n, K)
	}
	runCluster(t, lc)
	if n := generatedRows.Load() - before; n != K*N {
		t.Errorf("%d jobs of %d input rows generated %d rows cluster-wide, want %d", K, N, n, K*N)
	}
	for k, job := range jobs {
		got, err := job.ResultRows()
		if err != nil {
			t.Fatalf("job %d result: %v", k, err)
		}
		if want := sortedStrings(directRows(t, countedInput, params(k))); !slices.Equal(sortedStrings(got), want) {
			t.Errorf("job %d rows %v, want %v", k, sortedStrings(got), want)
		}
	}
}

// TestInputsGeneratedWhereReadSQL: a "sql" job's tables arrive as CSV text in
// its params, and the master makes none of their rows: describing the job
// counts them, and the agents' monotasks that read each partition parse it.
// Its rows equal direct execution.
func TestInputsGeneratedWhereReadSQL(t *testing.T) {
	name, params := workload.SQLCSV(workload.SQLCSVParams{
		Query:  "SELECT region, SUM(amount) AS total FROM sales GROUP BY region ORDER BY total DESC",
		Tables: []workload.CSVTable{{Name: "sales", CSV: "region,amount\neast,10\nwest,5\neast,7\nnorth,9\nwest,1\n"}},
	})
	lc := startCluster(t, 2, Config{})
	job, err := lc.Master.Submit(name, params)
	if err != nil {
		t.Fatal(err)
	}
	made, declared := 0, 0
	for _, in := range job.Built.Inputs {
		made += len(in.Rows)
		declared += in.Len()
	}
	if made != 0 || declared != 5 {
		t.Fatalf("the master made %d of the job's %d input rows, want 0 of 5", made, declared)
	}
	runCluster(t, lc)
	got, err := job.ResultRows()
	if err != nil {
		t.Fatal(err)
	}
	if want := stringify(directRows(t, name, params)); !slices.Equal(stringify(got), want) {
		t.Errorf("rows %v, want %v", stringify(got), want)
	}
}

func init() {
	workload.Register(oneTask, func(params []byte) (*workload.BuiltJob, error) {
		oneTaskBuilds.Add(1)
		if refuseOneTask.Load() {
			return nil, errors.New(oneTaskRefusal)
		}
		sess := dataset.NewSession()
		in := dataset.Parallelize(sess, []string{string(params)}, 1)
		out := dataset.Map(in, "tag", func(s string) dataset.Pair[string, int] {
			return dataset.Pair[string, int]{Key: s, Val: len(s)}
		})
		plan, err := sess.Graph().Build()
		return &workload.BuiltJob{
			Spec: core.JobSpec{Name: oneTask, Graph: sess.Graph(), MemEstimate: 1},
			Plan: plan, Inputs: sess.InputBindings(), Output: out.Dag(),
		}, err
	})
}

// TestPrepareOnFirstDispatch counts builds: K one-task jobs of distinct
// params on a 3-agent cluster are built once each by the master and once each
// by the agents, K agent builds in all, because only the agent a job is
// dispatched to is prepared for it. Preparing every agent at admission would
// build 3K. Every job's rows equal direct execution.
func TestPrepareOnFirstDispatch(t *testing.T) {
	const K = 6
	lc := startCluster(t, 3, Config{})
	var jobs []*RemoteJob
	before := oneTaskBuilds.Load()
	for k := 0; k < K; k++ {
		job, err := lc.Master.Submit(oneTask, []byte(fmt.Sprintf("job-%d", k)))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if n := len(job.Built.Plan.RealMonotasks()); n != 1 {
			t.Fatalf("%s has %d monotasks, want 1", oneTask, n)
		}
		jobs = append(jobs, job)
	}
	submitted := oneTaskBuilds.Load()
	if n := submitted - before; n != K {
		t.Fatalf("the master built %d times for %d jobs", n, K)
	}
	runCluster(t, lc)
	if n := oneTaskBuilds.Load() - submitted; n != K {
		t.Errorf("agents built %d times for %d one-task jobs on 3 agents, want %d", n, K, K)
	}
	for k, job := range jobs {
		got, err := job.ResultRows()
		if err != nil {
			t.Fatalf("job %d result: %v", k, err)
		}
		want := directRows(t, oneTask, []byte(fmt.Sprintf("job-%d", k)))
		if !slices.Equal(stringify(got), stringify(want)) {
			t.Errorf("job %d rows %v, want %v", k, stringify(got), stringify(want))
		}
	}
}

// TestAgentBuildFailureFailsRun: a job whose build succeeds at the master and
// fails on the agents fails the run, and Run's error carries the builder's
// message: the agent completes the dispatch behind its failed Prepare with
// the build error.
func TestAgentBuildFailureFailsRun(t *testing.T) {
	lc := startCluster(t, 2, Config{})
	if _, err := lc.Master.Submit(oneTask, []byte("refused-on-agents")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	refuseOneTask.Store(true)
	defer refuseOneTask.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := lc.Master.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), oneTaskRefusal) {
		t.Fatalf("Run returned %v, want the agents' build error %q", err, oneTaskRefusal)
	}
}
