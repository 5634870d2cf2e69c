// Command ursa-sim runs a single workload/scheduler configuration on the
// simulated cluster and prints the §5 metrics — the knob-turning companion
// to ursa-bench's fixed experiments.
//
// Usage:
//
//	ursa-sim -workload tpch -jobs 50 -policy srjf
//	ursa-sim -workload mixed -system spark
//	ursa-sim -workload tpch2 -no-stage-aware -net-concurrency 1
package main

import (
	"flag"
	"fmt"
	"os"

	"ursa/internal/baseline"
	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/experiments"
	"ursa/internal/metrics"
	"ursa/internal/resource"
	"ursa/internal/workload"
)

func main() {
	var (
		wl        = flag.String("workload", "tpch", "tpch | tpcds | tpch2 | mixed | synthetic1 | synthetic2")
		jobs      = flag.Int("jobs", 50, "job count (tpch/tpcds/tpch2/synthetic)")
		seed      = flag.Int64("seed", 1, "workload seed")
		system    = flag.String("system", "ursa", "ursa | spark | tez | monospark")
		policy    = flag.String("policy", "ejf", "ejf | srjf (ursa only)")
		placer    = flag.String("placer", "alg1", "alg1 | tetris | tetris2 | capacity (ursa only)")
		machines  = flag.Int("machines", 20, "cluster machines")
		cores     = flag.Int("cores", 32, "cores per machine")
		netGbps   = flag.Float64("net-gbps", 10, "network bandwidth per machine")
		oversub   = flag.Float64("oversubscribe", 1, "CPU over-subscription ratio (baselines)")
		noStage   = flag.Bool("no-stage-aware", false, "disable stage-aware placement")
		noNetDem  = flag.Bool("no-net-demand", false, "ignore network demands in placement")
		netCC     = flag.Int("net-concurrency", 0, "per-worker network monotask limit (0 = default)")
		interfPen = flag.Bool("interference-penalty", false, "steer placement away from machines running below their nominal rates (ursa only)")
		slowN     = flag.Int("slow-machines", 0, "machines suffering hidden co-located contention")
		slowFac   = flag.Float64("slow-factor", 0.5, "fraction of nominal core rate the contended machines actually deliver")
		sparkline = flag.Bool("sparkline", true, "print utilization sparklines")
	)
	flag.Parse()
	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ursa-sim: %v\n", err)
		os.Exit(2)
	}

	clusCfg := cluster.Default20x32()
	clusCfg.Machines = *machines
	clusCfg.CoresPerMachine = *cores
	clusCfg.NetBandwidth = resource.BytesPerSec(*netGbps * 1.25e8)
	if *slowN > 0 {
		if *slowN > *machines {
			fmt.Fprintf(os.Stderr, "ursa-sim: -slow-machines %d exceeds -machines %d\n", *slowN, *machines)
			os.Exit(2)
		}
		clusCfg.Profiles = []cluster.MachineProfile{
			{Count: *machines - *slowN},
			{Count: *slowN, Contention: *slowFac},
		}
	}

	var w *workload.Workload
	switch *wl {
	case "tpch":
		w = workload.TPCH(*jobs, 5*eventloop.Second, *seed)
	case "tpcds":
		w = workload.TPCDS(*jobs, 5*eventloop.Second, *seed)
	case "tpch2":
		w = workload.TPCH2(*jobs, *seed)
	case "mixed":
		w = workload.Mixed(*seed)
	case "synthetic1":
		w = workload.Setting1(*jobs)
	case "synthetic2":
		w = workload.Setting2(*jobs / 2)
	default:
		fmt.Fprintf(os.Stderr, "ursa-sim: unknown workload %q\n", *wl)
		os.Exit(2)
	}

	var res experiments.Result
	switch *system {
	case "ursa":
		cfg := core.Config{
			Policy:              pol,
			DisableStageAware:   *noStage,
			IgnoreNetworkDemand: *noNetDem,
			NetConcurrency:      *netCC,
			InterferencePenalty: *interfPen,
		}
		switch *placer {
		case "alg1":
		case "tetris":
			cfg.Placer = baseline.NewTetris(0.25, true)
		case "tetris2":
			cfg.Placer = baseline.NewTetris(0.25, false)
		case "capacity":
			cfg.Placer = baseline.NewCapacity()
		default:
			fmt.Fprintf(os.Stderr, "ursa-sim: unknown placer %q\n", *placer)
			os.Exit(2)
		}
		res = experiments.RunUrsa(w, cfg, clusCfg, eventloop.Second)
	case "spark", "tez", "monospark":
		cfg := baseline.Config{Oversubscribe: *oversub}
		switch *system {
		case "tez":
			cfg.Runtime = baseline.Tez
		case "monospark":
			cfg.Runtime = baseline.MonoSpark
		}
		res = experiments.RunBaseline(w, cfg, clusCfg, eventloop.Second)
	default:
		fmt.Fprintf(os.Stderr, "ursa-sim: unknown system %q\n", *system)
		os.Exit(2)
	}

	fmt.Printf("workload=%s jobs=%d system=%s\n", *wl, len(w.Jobs), res.System)
	fmt.Printf("makespan   %10.1f s\n", res.Makespan)
	fmt.Printf("avg JCT    %10.1f s\n", res.AvgJCT)
	fmt.Printf("p50 JCT    %10.1f s\n", metrics.Percentile(res.JCTs, 50))
	fmt.Printf("p90 JCT    %10.1f s\n", metrics.Percentile(res.JCTs, 90))
	fmt.Printf("UE cpu     %10.1f %%\n", res.Eff.UECPU)
	fmt.Printf("SE cpu     %10.1f %%\n", res.Eff.SECPU)
	fmt.Printf("UE mem     %10.1f %%\n", res.Eff.UEMem)
	fmt.Printf("SE mem     %10.1f %%\n", res.Eff.SEMem)
	fmt.Printf("imbalance  %10.1f %% (per-machine mean CPU deviation)\n",
		metrics.Imbalance(res.PerMachineCPU))
	if pc := res.Placement; pc.Passes > 0 {
		fmt.Printf("placement  %10d passes, %d task scans, %d skipped\n", pc.Passes, pc.Scanned, pc.Skipped)
	}
	if *sparkline && res.Series != nil {
		fmt.Printf("CPU  %s\n", res.Series.Sparkline(metrics.SeriesCPU, 72))
		fmt.Printf("NET  %s\n", res.Series.Sparkline(metrics.SeriesNet, 72))
		fmt.Printf("MEM  %s\n", res.Series.Sparkline(metrics.SeriesMem, 72))
	}
}
