// BENCH_ingest.json: the multi-tenant front door's performance snapshot.
// One loopback serve-mode cluster (real TCP, real wire protocol), thousands
// of concurrent closed-loop submitters, tens of thousands of jobs queued
// behind the admission memory gate: an untimed prefill phase builds a
// standing backlog of Prefill jobs, then Jobs further submissions are timed
// against it.
//
// The figures of merit are sustained submissions/s, the p50/p99
// submission→ack latency, the mean admission batch (how many submissions
// one driver crossing and one reservation/rank/sort pass serve; a front door
// that stopped batching reads 1), the end-of-run queued backlog, and the
// sampled per-tenant share error under a skewed (1 heavy + N light) tenant
// mix.
//
//	go run ./cmd/ursa-bench -ingest BENCH_ingest.json
//	go run ./cmd/ursa-bench -guard-ingest BENCH_ingest.json
package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/core"
	"ursa/internal/remote"
	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
)

// IngestOptions sizes one ingest measurement.
type IngestOptions struct {
	// Submitters is the number of concurrent client connections, each a
	// closed loop (submit, wait for ack, repeat).
	Submitters int
	// Prefill is the standing backlog built (untimed) before the
	// measurement starts, so every timed admission pass runs against that
	// queue depth.
	Prefill int
	// Jobs is the timed submission count.
	Jobs int
}

// DefaultIngestOptions is the checked-in snapshot scale: ≥2,000 concurrent
// submitters, ≥20,000 jobs queued when the measurement runs.
var DefaultIngestOptions = IngestOptions{Submitters: 2000, Prefill: 20000, Jobs: 3000}

// GuardIngestOptions is the CI regression-guard scale: fewer submitters and
// timed jobs than the snapshot so the run stays in the tens of seconds, but
// the same 20,000-job standing backlog. The backlog must stay at snapshot
// depth: an admission pass costs time linear in it, which is the cost
// batching amortizes and the regime the front door is built for.
var GuardIngestOptions = IngestOptions{Submitters: 800, Prefill: 20000, Jobs: 1600}

// IngestArm is one measurement of the front door.
type IngestArm struct {
	Jobs       int     `json:"jobs"`
	Prefill    int     `json:"prefill"`
	Submitters int     `json:"submitters"`
	Seconds    float64 `json:"seconds"`
	SubsPerSec float64 `json:"subs_per_sec"`
	// Ack latency: submission write to SubmitAck receipt, per timed job.
	AckP50Ms float64 `json:"ack_p50_ms"`
	AckP99Ms float64 `json:"ack_p99_ms"`
	// QueuedEnd is the scheduler's live backlog when the last ack landed —
	// the queue depth the admission pipeline was sustaining.
	QueuedEnd int `json:"queued_end"`
	// Batches/MeanBatch are the admission pipeline's amortization figures
	// over the timed phase.
	Batches   int     `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`
	// ShareError is the per-tenant weighted fair-share error sampled on the
	// control loop at the end of the run (see core.ShareError).
	ShareError float64 `json:"share_error"`
	// StatusDrops counts JobStatus frames dropped on full client queues.
	StatusDrops int `json:"status_drops"`
}

// IngestReport is the BENCH_ingest.json document.
type IngestReport struct {
	Schema    string `json:"schema"`
	Command   string `json:"command"`
	GoVersion string `json:"go_version"`
	MaxProcs  int    `json:"max_procs"`

	Batched IngestArm `json:"batched"`
}

// ingestSchema names the document layout LoadIngest accepts. (v1 compared
// against a second arm that the master can no longer run.)
const ingestSchema = "ursa-bench-ingest/v2"

// ingestTenants is the skewed tenant mix: one heavy tenant with 3× weight
// plus three light tenants. Submitters round-robin across the mix, so every
// tenant has unbounded demand and the share error isolates the allocator.
var ingestTenants = []struct {
	name   string
	weight float64
}{
	{"heavy", 3}, {"light-0", 1}, {"light-1", 1}, {"light-2", 1},
}

func ingestTenantWeights() map[string]float64 {
	w := make(map[string]float64, len(ingestTenants))
	for _, t := range ingestTenants {
		w[t.name] = t.weight
	}
	return w
}

// hammer drives every client in a closed loop (submit, await ack, repeat)
// until n submissions have been acked across the fleet. Per-submission
// latencies are collected only when record is set (the prefill phase skips
// the bookkeeping).
func hammer(clients []*remote.Client, params []byte, n int, record bool) ([]time.Duration, error) {
	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		firstErr  error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *remote.Client) {
			defer wg.Done()
			var local []time.Duration
			for next.Add(1) <= int64(n) {
				t0 := time.Now()
				if _, err := cl.Submit("micro", params); err != nil {
					fail(err)
					return
				}
				if record {
					local = append(local, time.Since(t0))
				}
			}
			if record {
				mu.Lock()
				latencies = append(latencies, local...)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if record && len(latencies) != n {
		return nil, fmt.Errorf("ingest: %d acks for %d jobs", len(latencies), n)
	}
	return latencies, nil
}

// runIngest takes one measurement: start a loopback serve cluster, build the
// standing backlog, hammer the timed phase, read the scheduler's end state,
// drain.
func runIngest(opts IngestOptions) (IngestArm, error) {
	arm := IngestArm{Jobs: opts.Jobs, Prefill: opts.Prefill, Submitters: opts.Submitters}
	cfg := remote.Config{
		Serve: true,
		// Twelve admission slots: every job claims one memory unit, so the
		// backlog queues behind the reservation gate while a dozen run. Twelve
		// makes the 3:1:1:1 tenant mix exactly representable (6+2+2+2), so the
		// reported share error measures the allocator, not slot quantization.
		MemPerWorker:      12,
		CoresPerWorker:    4,
		IntakeCap:         opts.Prefill + opts.Jobs + 1024,
		HeartbeatInterval: 250 * time.Millisecond,
		HeartbeatMisses:   40, // the box is saturated; liveness must not fire
		Core: core.Config{
			Policy:        core.SRJF, // rank refresh on every admission pass — the cost batching amortizes
			TenantWeights: ingestTenantWeights(),
		},
	}
	lc, err := remote.StartLocalCluster(1, cfg, agent.Config{})
	if err != nil {
		return arm, err
	}
	defer lc.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- lc.Master.Run(context.Background()) }()

	// Admitted jobs hold their reservation ~100ms: long enough that finish
	// churn (each finish runs an admission pass) doesn't dominate the loop,
	// short enough that admission slots visibly recycle during the run.
	_, params := workload.Micro(workload.MicroParams{Rows: 64, MemEstimate: 1, HoldMs: 100})

	clients := make([]*remote.Client, opts.Submitters)
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
	}()
	var (
		dialWg  sync.WaitGroup
		dialMu  sync.Mutex
		dialErr error
	)
	for i := range clients {
		dialWg.Add(1)
		go func(i int) {
			defer dialWg.Done()
			cl, err := remote.DialClient(remote.ClientConfig{
				Addr:   lc.Master.Addr(),
				Tenant: ingestTenants[i%len(ingestTenants)].name,
			})
			if err != nil {
				dialMu.Lock()
				if dialErr == nil {
					dialErr = err
				}
				dialMu.Unlock()
				return
			}
			clients[i] = cl
		}(i)
	}
	dialWg.Wait()
	if dialErr != nil {
		return arm, fmt.Errorf("ingest: dial: %w", dialErr)
	}

	if _, err := hammer(clients, params, opts.Prefill, false); err != nil {
		return arm, fmt.Errorf("ingest: prefill: %w", err)
	}
	ingest := lc.Master.Ingest()
	batches0, batchedJobs0 := ingest.BatchStats()
	drops0 := ingest.StatusDrops()

	start := time.Now()
	latencies, err := hammer(clients, params, opts.Jobs, true)
	arm.Seconds = time.Since(start).Seconds()
	if err != nil {
		return arm, err
	}

	// Scheduler end state, read consistently on the control loop.
	type endState struct {
		queued   int
		shareErr float64
	}
	stateC := make(chan endState, 1)
	lc.Master.Sys.Drv.Send(func() {
		sched := lc.Master.Sys.Core.Sched
		stateC <- endState{
			queued:   sched.QueuedCount(),
			shareErr: core.ShareError(sched.TenantShares()),
		}
	})
	st := <-stateC

	arm.SubsPerSec = float64(opts.Jobs) / arm.Seconds
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	arm.AckP50Ms = float64(latencies[len(latencies)/2]) / 1e6
	arm.AckP99Ms = float64(latencies[len(latencies)*99/100]) / 1e6
	arm.QueuedEnd = st.queued
	arm.ShareError = st.shareErr
	batches1, batchedJobs1 := ingest.BatchStats()
	arm.Batches = batches1 - batches0
	if arm.Batches > 0 {
		arm.MeanBatch = float64(batchedJobs1-batchedJobs0) / float64(arm.Batches)
	}
	arm.StatusDrops = ingest.StatusDrops() - drops0

	lc.Master.Drain()
	select {
	case err := <-runErr:
		if err != nil {
			return arm, fmt.Errorf("ingest: serve run: %w", err)
		}
	case <-time.After(120 * time.Second):
		return arm, fmt.Errorf("ingest: drain did not complete")
	}
	return arm, nil
}

// CollectIngest measures the front door at the given scale and assembles the
// report.
func CollectIngest(opts IngestOptions) (*IngestReport, error) {
	rep := &IngestReport{
		Schema:    ingestSchema,
		Command:   "go run ./cmd/ursa-bench -ingest BENCH_ingest.json",
		GoVersion: runtime.Version(),
		MaxProcs:  runtime.GOMAXPROCS(0),
	}
	var err error
	if rep.Batched, err = runIngest(opts); err != nil {
		return nil, err
	}
	return rep, nil
}

// LoadIngest parses a BENCH_ingest.json document, refusing a layout other
// than the current one.
func LoadIngest(r io.Reader) (*IngestReport, error) {
	rep := &IngestReport{}
	if err := json.NewDecoder(r).Decode(rep); err != nil {
		return nil, err
	}
	if rep.Schema != ingestSchema {
		return nil, fmt.Errorf("schema %q, want %q: regenerate the snapshot with `make bench-ingest`",
			rep.Schema, ingestSchema)
	}
	return rep, nil
}

// WriteJSON renders the report for checking in.
func (r *IngestReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
