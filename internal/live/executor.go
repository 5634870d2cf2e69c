package live

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/localrt"
	"ursa/internal/resource"
)

// executor implements core.MonotaskExecutor over real goroutines: a monotask
// runs its actual execution steps (localrt.Runtime.Exec — UDF invocation or
// in-memory data movement), its wall-clock duration is measured, and the
// completion is relayed back onto the control loop through the driver inbox.
// The worker's rate monitor therefore blends *measured* processing rates
// into APT_r(w) — the paper's feedback loop (§4.2.2) over real numbers.
//
// A process-wide semaphore of GOMAXPROCS slots bounds how many CPU monotasks
// execute concurrently; the logical per-worker concurrency limits of §4.2.3
// are enforced upstream by the worker queues, exactly as in simulation.
type executor struct {
	sys *System
	sem chan struct{}

	mu  sync.Mutex
	rts map[*dag.Plan]*localrt.Runtime

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newExecutor(sys *System) *executor {
	ctx, cancel := context.WithCancel(context.Background())
	return &executor{
		sys:    sys,
		sem:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		rts:    make(map[*dag.Plan]*localrt.Runtime),
		ctx:    ctx,
		cancel: cancel,
	}
}

// RegisterJob binds a job's plan to the runtime holding its materialized
// datasets: every submission builds its own plan, so the plan names the job.
func (e *executor) RegisterJob(rt *localrt.Runtime) {
	e.mu.Lock()
	e.rts[rt.Plan()] = rt
	e.mu.Unlock()
}

func (e *executor) runtime(j *core.Job) *localrt.Runtime {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rts[j.Plan]
}

// Close aborts pending executions and waits for in-flight goroutines — the
// Runtime.RunContext cancellation satellite exists so this cannot leak.
func (e *executor) Close() {
	e.cancel()
	e.wg.Wait()
}

// Start implements core.MonotaskExecutor. It is invoked on the control loop;
// the completion callback is delivered back to the control loop via the
// driver inbox with the measured bytes and wall-clock seconds.
func (e *executor) Start(w *core.Worker, j *core.Job, mt *dag.Monotask, done func(bytes, seconds float64)) (abort func()) {
	rt := e.runtime(j)
	if rt == nil {
		// Registration is part of submission; reaching execution without a
		// runtime is a wiring bug.
		panic(fmt.Sprintf("live: job %d has no registered runtime", j.ID))
	}

	// A running CPU monotask holds one core of its logical worker for its
	// whole (measured) duration. release runs on the control loop, from
	// either the completion or the abort path.
	release := core.HoldCore(w, mt)

	// aborted is set on the control loop when the worker fails (§4.3); the
	// straggling goroutine's eventual completion is then discarded — the
	// task was already reset for retry elsewhere.
	var aborted atomic.Bool

	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		bounded := mt.Kind == resource.CPU
		if bounded {
			select {
			case e.sem <- struct{}{}:
			case <-e.ctx.Done():
				return // system shutting down; completion irrelevant
			}
		}
		var err error
		start := time.Now()
		if !aborted.Load() {
			err = rt.Exec(mt)
		}
		elapsed := time.Since(start).Seconds()
		if elapsed < 1e-6 {
			// Floor at the clock granularity so a trivial monotask cannot
			// inject a near-infinite rate sample.
			elapsed = 1e-6
		}
		if bounded {
			<-e.sem
		}
		e.sys.Drv.Send(func() {
			if aborted.Load() {
				return
			}
			release()
			if err != nil {
				e.sys.Fail(fmt.Errorf("live: %v failed: %w", mt, err))
				return
			}
			done(mt.InputBytes, elapsed)
		})
	}()

	return func() {
		aborted.Store(true)
		release()
	}
}
