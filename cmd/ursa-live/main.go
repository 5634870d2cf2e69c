// Command ursa-live runs real jobs through the Ursa scheduler on the local
// machine: the same control plane the simulator exercises — admission,
// Algorithm-1 placement, per-resource worker queues — driven by the wall
// clock, with monotasks executing actual work (UDF invocation, hash-bucketed
// shuffle movement) and reporting *measured* durations back into the
// workers' processing-rate monitors (§4.2.2). The jobs are the workload
// registry's wordcount, the one the distributed master runs.
//
// Usage:
//
//	ursa-live -jobs 4 -workers 4 -lines 20000
//	ursa-live -jobs 8 -policy srjf -sample 20ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/live"
	"ursa/internal/metrics"
	"ursa/internal/remote/workload"
	"ursa/internal/resource"
)

func main() {
	var (
		jobs      = flag.Int("jobs", 4, "concurrent word-count jobs to submit")
		workers   = flag.Int("workers", 4, "logical scheduler workers")
		parallel  = flag.Int("parallelism", 0, "process-wide CPU execution bound (0 = GOMAXPROCS)")
		lines     = flag.Int("lines", 20000, "input lines per job")
		parts     = flag.Int("parts", 8, "input partitions per job")
		policy    = flag.String("policy", "ejf", "ejf | srjf")
		sample    = flag.Duration("sample", 50*time.Millisecond, "utilization sampling period (0 disables)")
		rateWin   = flag.Duration("rate-window", 100*time.Millisecond, "rate-monitor window (measured rates replace seeds after one window)")
		sparkline = flag.Bool("sparkline", true, "print utilization sparklines")
		timeout   = flag.Duration("timeout", 2*time.Minute, "abort if the run exceeds this")
	)
	flag.Parse()
	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ursa-live: %v\n", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the run context: the driver stops, the executor
	// seam aborts in-flight work on Close, and we exit 0 after printing the
	// final metrics — a drain, not a crash. Installed before submission so
	// an early interrupt is also graceful.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	cfg := live.Config{Workers: *workers, Parallelism: *parallel}
	cfg.Core.RateWindow = eventloop.Duration(*rateWin / time.Microsecond)
	cfg.Core.Policy = pol
	sys := live.NewSystem(cfg)
	var sampler *metrics.Sampler
	if *sample > 0 {
		sampler = metrics.NewSampler(sys.Drv.Loop(), metrics.ClusterSource(sys.Cluster),
			eventloop.Duration(*sample/time.Microsecond))
	}

	fmt.Printf("submitting %d word-count jobs (%d lines × %d partitions each) to %d workers\n",
		*jobs, *lines, *parts, *workers)
	var handles []*live.Job
	for i := 0; i < *jobs && ctx.Err() == nil; i++ {
		bj, err := workload.Build(workload.WordCount(workload.WordCountParams{
			Lines: *lines, InParts: *parts, OutParts: *parts,
		}))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ursa-live: %v\n", err)
			os.Exit(2)
		}
		bj.Spec.Name = fmt.Sprintf("wordcount-%d", i)
		handles = append(handles, sys.Submit(live.Submission{
			Spec: bj.Spec, Plan: bj.Plan, Inputs: bj.Inputs,
		}))
	}
	// The run is ours to end: after the last job, at once with none.
	finished := 0
	sys.Core.OnJobFinished = func(*core.Job) {
		if finished++; finished == len(handles) {
			sys.Shutdown()
		}
	}
	if len(handles) == 0 {
		sys.Shutdown()
	}

	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	wallStart := time.Now()
	runErr := sys.Run(ctx)
	wall := time.Since(wallStart)
	interrupted := runErr != nil && errors.Is(runErr, context.Canceled)
	if runErr != nil && !interrupted {
		fmt.Fprintf(os.Stderr, "ursa-live: %v\n", runErr)
		os.Exit(1)
	}

	if interrupted {
		fmt.Printf("\nursa-live: interrupted, drained after %.1fs\n", wall.Seconds())
	} else {
		fmt.Printf("\n%-14s %10s\n", "job", "JCT")
		for _, j := range handles {
			fmt.Printf("%-14s %9.1fms\n", j.Core.Spec.Name, j.Core.JCT().Seconds()*1e3)
		}
	}
	fmt.Printf("\nwall makespan  %9.1fms\n", wall.Seconds()*1e3)

	fmt.Println("\nmeasured processing rates (rows/s, fed back into APT_r(w)):")
	for i, w := range sys.Core.Workers {
		fmt.Printf("  worker %d:  cpu %11.0f   net %11.0f   disk %11.0f\n",
			i, w.Rate(resource.CPU), w.Rate(resource.Net), w.Rate(resource.Disk))
	}

	if *sparkline && sampler != nil {
		fmt.Println()
		fmt.Printf("CPU  %s\n", sampler.Cluster.Sparkline(metrics.SeriesCPU, 72))
		fmt.Printf("NET  %s\n", sampler.Cluster.Sparkline(metrics.SeriesNet, 72))
		fmt.Printf("MEM  %s\n", sampler.Cluster.Sparkline(metrics.SeriesMem, 72))
	}
}
