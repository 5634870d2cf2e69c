// Command ursa-live runs real jobs through the Ursa scheduler on the local
// machine: the same control plane the simulator exercises — admission,
// Algorithm-1 placement, per-resource worker queues — driven by the wall
// clock, with monotasks executing actual work (UDF invocation, hash-bucketed
// shuffle movement) and reporting *measured* durations back into the
// workers' processing-rate monitors (§4.2.2).
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
	"strings"
	"syscall"
	"time"

	"ursa/internal/core"
	"ursa/internal/dag"
	"ursa/internal/eventloop"
	"ursa/internal/live"
	"ursa/internal/localrt"
	"ursa/internal/metrics"
	"ursa/internal/resource"
)

type kv struct {
	K string
	V int
}

func (p kv) ShuffleKey() any { return p.K }

// wordCountGraph is the canonical map + shuffle + reduce DAG over text lines.
func wordCountGraph(inParts, outParts int) (*dag.Graph, *dag.Dataset, *dag.Dataset) {
	g := dag.NewGraph()
	lines := g.CreateData(inParts)
	pairs := g.CreateData(inParts)
	shuffled := g.CreateData(outParts)
	counts := g.CreateData(outParts)

	tokenize := g.CreateOp(resource.CPU, "tokenize").Read(lines).Create(pairs)
	tokenize.SetUDF(localrt.UDF(func(in [][]localrt.Row) []localrt.Row {
		agg := map[string]int{}
		for _, row := range in[0] {
			for _, w := range strings.Fields(row.(string)) {
				agg[w]++
			}
		}
		out := make([]localrt.Row, 0, len(agg))
		for w, c := range agg {
			out = append(out, kv{w, c})
		}
		return out
	}))
	shuffle := g.CreateOp(resource.Net, "shuffle").Read(pairs).Create(shuffled)
	reduce := g.CreateOp(resource.CPU, "reduce").Read(shuffled).Create(counts)
	reduce.SetUDF(localrt.UDF(func(in [][]localrt.Row) []localrt.Row {
		agg := map[string]int{}
		for _, row := range in[0] {
			p := row.(kv)
			agg[p.K] += p.V
		}
		out := make([]localrt.Row, 0, len(agg))
		for w, c := range agg {
			out = append(out, kv{w, c})
		}
		return out
	}))
	tokenize.To(shuffle, dag.Sync)
	shuffle.To(reduce, dag.Async)
	return g, lines, counts
}

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

	cfg := live.Config{
		Workers:        *workers,
		Parallelism:    *parallel,
		SampleInterval: eventloop.Duration(*sample / time.Microsecond),
	}
	cfg.Core.RateWindow = eventloop.Duration(*rateWin / time.Microsecond)
	cfg.Core.Policy = pol
	sys := live.NewSystem(cfg)

	fmt.Printf("submitting %d word-count jobs (%d lines × %d partitions each) to %d workers\n",
		*jobs, *lines, *parts, *workers)
	for i := 0; i < *jobs && ctx.Err() == nil; i++ {
		g, in, _ := wordCountGraph(*parts, *parts)
		input := make([]localrt.Row, *lines)
		for l := 0; l < *lines; l++ {
			input[l] = fmt.Sprintf("job%d w%d w%d common words here", i, l%97, l%31)
		}
		_, err := sys.Submit(
			core.JobSpec{Name: fmt.Sprintf("wordcount-%d", i), Graph: g},
			[]localrt.PlanInput{{Dataset: in, Rows: input}},
		)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ursa-live: %v\n", err)
			os.Exit(1)
		}
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
		for _, j := range sys.Jobs() {
			fmt.Printf("%-14s %9.1fms\n", j.Core.Spec.Name, j.Core.JCT().Seconds()*1e3)
		}
	}
	fmt.Printf("\nwall makespan  %9.1fms\n", wall.Seconds()*1e3)

	fmt.Println("\nmeasured processing rates (rows/s, fed back into APT_r(w)):")
	for i, w := range sys.Core.Workers {
		fmt.Printf("  worker %d:  cpu %11.0f   net %11.0f   disk %11.0f\n",
			i, w.Rate(resource.CPU), w.Rate(resource.Net), w.Rate(resource.Disk))
	}

	if *sparkline && sys.Sampler != nil {
		fmt.Println()
		fmt.Printf("CPU  %s\n", sys.Sampler.Cluster.Sparkline(metrics.SeriesCPU, 72))
		fmt.Printf("NET  %s\n", sys.Sampler.Cluster.Sparkline(metrics.SeriesNet, 72))
		fmt.Printf("MEM  %s\n", sys.Sampler.Cluster.Sparkline(metrics.SeriesMem, 72))
	}
}
