package remote

// Where a job's plan is built: a worker learns a job from its first dispatch,
// so only the agents that run a job's work build it, and a build that fails
// there reaches the master as the failed completion of that dispatch.

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
