package experiments

import (
	"fmt"
	"sort"

	"ursa/internal/baseline"
	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/metrics"
	"ursa/internal/resource"
	"ursa/internal/trace"
	"ursa/internal/workload"
)

// All returns every experiment, in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1", "Utilization patterns of LR/CC/Q14/Q8 on dedicated/Spark/Tez stacks", Fig1},
		{"table1", "Table 1", "CPU utilization efficiency of Spark and Tez on solo jobs", Table1},
		{"table2", "Table 2", "TPC-H: Ursa-EJF/SRJF vs Y+S vs Y+T", Table2},
		{"fig4", "Figure 4", "TPC-H utilization time series", Fig4},
		{"table3", "Table 3", "TPC-DS: Ursa-EJF/SRJF vs Y+S", Table3},
		{"fig5", "Figure 5", "TPC-DS utilization time series", Fig5},
		{"table4", "Table 4", "Mixed workload: Ursa vs Y+U/Y+S/Capacity/Tetris/Tetris2", Table4},
		{"table5", "Table 5", "CPU over-subscription ×1/2/4 on Y+U and Y+S", Table5},
		{"sec52net", "§5.2", "Effect of network demands in task placement (TPC-H2)", Sec52Net},
		{"fig6", "Figure 6", "Bottleneck shifts under 1/4 Gbps networks (TPC-H2)", Fig6},
		{"fig7", "Figure 7", "Stage-aware vs per-task placement (TPC-H2)", Fig7},
		{"table6", "Table 6", "Job ordering vs monotask ordering under EJF/SRJF", Table6},
		{"fig8", "Figure 8", "Solo synthetic Type-1/Type-2 utilization", Fig8},
		{"fig9", "Figure 9", "Setting 1: 40 Type-1 jobs, actual vs expected JCT", Fig9},
		{"fig10", "Figure 10", "Setting 2: alternating Type-1/2, EJF and SRJF", Fig10},
		{"table1-hetero", "extra", "Heterogeneous cluster: contended fleet vs uncontended reference", Table1Hetero},
		{"ablation-netcc", "extra", "Network concurrency limit ablation (§4.2.3)", AblationNetConcurrency},
		{"ablation-ept", "extra", "EPT sensitivity around the scheduling interval", AblationEPT},
		{"ablation-fault", "extra", "Worker-failure recovery overhead (§4.3)", AblationFault},
		{"diurnal", "extra", "Diurnal trace: elastic autoscaling vs fixed peak provisioning", Diurnal},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func paperCluster() cluster.Config { return cluster.Default20x32() }

const sampleEvery = eventloop.Second

// soloRun runs one job alone on a baseline stack.
func soloRun(spec core.JobSpec, cfg baseline.Config) Result {
	return RunBaseline(workload.Single(spec), cfg, paperCluster(), sampleEvery)
}

// dedicatedCfg approximates a domain-specific system (Petuum, Gemini): the
// job owns whole machines for its lifetime — machine-sized containers, no
// dynamic allocation.
func dedicatedCfg() baseline.Config {
	return baseline.Config{
		Runtime:       baseline.Tez, // container reuse, held for the job
		ExecutorCores: 32,
		ExecutorMem:   100e9,
	}
}

func sparkCfg() baseline.Config { return baseline.Config{Runtime: baseline.Spark} }
func tezCfg() baseline.Config   { return baseline.Config{Runtime: baseline.Tez} }

// fig1Jobs are the solo workloads of §2.
func fig1Jobs(o Options) map[string]func() core.JobSpec {
	return map[string]func() core.JobSpec{
		"lr": func() core.JobSpec { return workload.LR(20e9, 20).Spec() },
		"cc": func() core.JobSpec { return workload.CC(60e9, 12).Spec() },
		"q14": func() core.JobSpec {
			s, _ := workload.Query("q14", 200e9, o.Seed)
			return s
		},
		"q8": func() core.JobSpec {
			s, _ := workload.Query("q8", 200e9, o.Seed)
			return s
		},
	}
}

// Fig1 reproduces the dynamic-utilization motivation figures.
func Fig1(opt Options) *Report {
	o := opt.withDefaults()
	jobs := fig1Jobs(o)
	rep := &Report{ID: "fig1", Title: "Figure 1: resource utilization patterns",
		Header: []string{"panel", "workload", "stack", "meanCPU(%)", "peakCPU(%)"},
		Series: map[string]*trace.TimeSeries{}}
	panels := []struct {
		panel, job string
		cfg        baseline.Config
	}{
		{"a", "lr", dedicatedCfg()},
		{"b", "lr", sparkCfg()},
		{"c", "cc", dedicatedCfg()},
		{"d", "cc", sparkCfg()},
		{"e", "q14", sparkCfg()},
		{"f", "q14", tezCfg()},
		{"g", "q8", sparkCfg()},
		{"h", "q8", tezCfg()},
	}
	var runs []namedRun
	for _, p := range panels {
		p := p
		runs = append(runs, namedRun{p.panel, func() Result {
			return soloRun(jobs[p.job](), p.cfg)
		}})
	}
	results := runAll(o, runs)
	for i, p := range panels {
		ts := results[i].Series
		key := fmt.Sprintf("fig1%s-%s-%s", p.panel, p.job, p.cfg.Runtime)
		rep.Series[key] = ts
		var peak float64
		for _, v := range ts.Series[metrics.SeriesCPU] {
			if v > peak {
				peak = v
			}
		}
		rep.Rows = append(rep.Rows, []string{
			p.panel, p.job, p.cfg.Runtime.String(),
			fmt.Sprintf("%.1f", ts.Mean(metrics.SeriesCPU)),
			fmt.Sprintf("%.1f", peak),
		})
	}
	rep.Notes = append(rep.Notes,
		"dedicated = machine-sized held containers approximating Petuum/Gemini")
	return rep
}

// Table1 reports the CPU UE of Spark and Tez on the solo jobs.
func Table1(opt Options) *Report {
	o := opt.withDefaults()
	jobs := fig1Jobs(o)
	rep := &Report{ID: "table1", Title: "Table 1: CPU utilization efficiency",
		Header: []string{"stack", "LR", "CC", "TPC-H Q14", "TPC-H Q8"}}
	cfgs := []baseline.Config{sparkCfg(), tezCfg()}
	names := []string{"lr", "cc", "q14", "q8"}
	type cellID struct{ row, col int }
	var runs []namedRun
	var cells []cellID
	for ri, cfg := range cfgs {
		for ci, name := range names {
			if cfg.Runtime == baseline.Tez && (name == "lr" || name == "cc") {
				continue
			}
			cfg, name := cfg, name
			runs = append(runs, namedRun{fmt.Sprintf("%s/%s", cfg.Runtime, name),
				func() Result { return soloRun(jobs[name](), cfg) }})
			cells = append(cells, cellID{ri, ci + 1})
		}
	}
	results := runAll(o, runs)
	for _, cfg := range cfgs {
		row := []string{cfg.Runtime.String(), "N/A", "N/A", "N/A", "N/A"}
		rep.Rows = append(rep.Rows, row)
	}
	for i, c := range cells {
		rep.Rows[c.row][c.col] = fmt.Sprintf("%.2f%%", results[i].Eff.UECPU)
	}
	return rep
}

// heteroPaperCluster is the paper testbed with `slow` of its machines
// contended: they declare the same profile as the rest but deliver only
// `contention` of their nominal core rate — co-located load the scheduler
// cannot see, only measure.
func heteroPaperCluster(slow int, contention float64) cluster.Config {
	cfg := paperCluster()
	cfg.Profiles = []cluster.MachineProfile{
		{Count: cfg.Machines - slow},
		{Count: slow, Contention: contention},
	}
	return cfg
}

// Table1Hetero runs the same TPC-H workload on a cluster where a quarter of
// the machines deliver 10% of their declared core rate to hidden co-located
// load, and on the uncontended cluster as the reference ceiling. Placement
// sees the contention only through the workers' measured rates.
func Table1Hetero(opt Options) *Report {
	o := opt.withDefaults()
	rep := &Report{ID: "table1-hetero",
		Title:  "Heterogeneous cluster: contended fleet (5/20 machines at 10% rate) vs uncontended",
		Header: effHeader}
	n := o.scaled(6)
	gen := func() *workload.Workload { return workload.TPCH(n, 20*eventloop.Second, o.Seed) }
	runs := []namedRun{
		{"Ursa (contended)", func() Result {
			return RunUrsa(gen(), core.Config{Policy: core.SRJF}, heteroPaperCluster(5, 0.1), sampleEvery)
		}},
		{"Ursa (uncontended ref)", func() Result {
			return RunUrsa(gen(), core.Config{Policy: core.SRJF}, paperCluster(), sampleEvery)
		}},
	}
	for i, res := range runAll(o, runs) {
		rep.Rows = append(rep.Rows, effRow(runs[i].name, res))
	}
	return rep
}

// Table2 runs the TPC-H comparison; Figure 4 reuses its series.
func Table2(opt Options) *Report {
	o := opt.withDefaults()
	n := o.scaled(200)
	gen := func() *workload.Workload { return workload.TPCH(n, 5*eventloop.Second, o.Seed) }
	rep := &Report{ID: "table2", Title: "Table 2: performance on TPC-H",
		Header: effHeader, Series: map[string]*trace.TimeSeries{}}
	runs := []namedRun{
		{"Ursa-EJF", func() Result { return RunUrsa(gen(), core.Config{Policy: core.EJF}, paperCluster(), sampleEvery) }},
		{"Ursa-SRJF", func() Result { return RunUrsa(gen(), core.Config{Policy: core.SRJF}, paperCluster(), sampleEvery) }},
		{"Y+S", func() Result { return RunBaseline(gen(), sparkCfg(), paperCluster(), sampleEvery) }},
		{"Y+T", func() Result { return RunBaseline(gen(), tezCfg(), paperCluster(), sampleEvery) }},
	}
	for i, res := range runAll(o, runs) {
		rep.Rows = append(rep.Rows, effRow(runs[i].name, res))
		rep.Series[runs[i].name] = res.Series
	}
	return rep
}

// Fig4 is Table2's utilization series.
func Fig4(opt Options) *Report {
	rep := Table2(opt)
	rep.ID, rep.Title = "fig4", "Figure 4: resource utilization for TPC-H"
	return rep
}

// Table3 runs the TPC-DS comparison (§5.1.1: deeper DAGs, oscillating
// parallelism).
func Table3(opt Options) *Report {
	o := opt.withDefaults()
	n := o.scaled(200)
	gen := func() *workload.Workload { return workload.TPCDS(n, 5*eventloop.Second, o.Seed) }
	rep := &Report{ID: "table3", Title: "Table 3: performance on TPC-DS",
		Header: effHeader, Series: map[string]*trace.TimeSeries{}}
	runs := []namedRun{
		{"Ursa-EJF", func() Result { return RunUrsa(gen(), core.Config{Policy: core.EJF}, paperCluster(), sampleEvery) }},
		{"Ursa-SRJF", func() Result { return RunUrsa(gen(), core.Config{Policy: core.SRJF}, paperCluster(), sampleEvery) }},
		{"Y+S", func() Result {
			cfg := sparkCfg()
			cfg.IdleTimeout = 5 * eventloop.Second // §5.1.1 TPC-DS setting
			return RunBaseline(gen(), cfg, paperCluster(), sampleEvery)
		}},
	}
	for i, res := range runAll(o, runs) {
		rep.Rows = append(rep.Rows, effRow(runs[i].name, res))
		rep.Series[runs[i].name] = res.Series
	}
	return rep
}

// Fig5 is Table3's utilization series.
func Fig5(opt Options) *Report {
	rep := Table3(opt)
	rep.ID, rep.Title = "fig5", "Figure 5: resource utilization for TPC-DS"
	return rep
}

// Table4 runs the Mixed-workload comparison including the alternative
// placement algorithms.
func Table4(opt Options) *Report {
	o := opt.withDefaults()
	gen := func() *workload.Workload { return workload.Mixed(o.Seed) }
	clusCfg := paperCluster()
	// Profiled peak network share of one task: shuffles run under the
	// worker's concurrency limit of 4, so a task's sustained peak is about
	// a quarter of the downlink.
	netPeak := 0.25
	rep := &Report{ID: "table4", Title: "Table 4: performance on Mixed",
		Header: []string{"system", "makespan(s)", "avgJCT(s)", "UEcpu(%)", "SEcpu(%)"}}
	runs := []namedRun{
		{"Ursa-EJF", func() Result { return RunUrsa(gen(), core.Config{Policy: core.EJF}, clusCfg, 0) }},
		{"Ursa-SRJF", func() Result { return RunUrsa(gen(), core.Config{Policy: core.SRJF}, clusCfg, 0) }},
		{"Y+U", func() Result { return RunBaseline(gen(), baseline.Config{Runtime: baseline.MonoSpark}, clusCfg, 0) }},
		{"Y+S", func() Result { return RunBaseline(gen(), sparkCfg(), clusCfg, 0) }},
		{"Capacity", func() Result { return RunUrsa(gen(), core.Config{Placer: baseline.NewCapacity()}, clusCfg, 0) }},
		{"Tetris", func() Result {
			return RunUrsa(gen(), core.Config{Placer: baseline.NewTetris(netPeak, true)}, clusCfg, 0)
		}},
		{"Tetris2", func() Result {
			return RunUrsa(gen(), core.Config{Placer: baseline.NewTetris(netPeak, false)}, clusCfg, 0)
		}},
	}
	for i, res := range runAll(o, runs) {
		rep.Rows = append(rep.Rows, []string{
			runs[i].name,
			fmt.Sprintf("%.2f", res.Makespan),
			fmt.Sprintf("%.2f", res.AvgJCT),
			fmt.Sprintf("%.2f", res.Eff.UECPU),
			fmt.Sprintf("%.2f", res.Eff.SECPU),
		})
	}
	return rep
}

// Table5 sweeps the CPU over-subscription ratio for Y+U and Y+S on Mixed
// and reports the straggler growth (§5.1.2).
func Table5(opt Options) *Report {
	o := opt.withDefaults()
	gen := func() *workload.Workload { return workload.Mixed(o.Seed) }
	rep := &Report{ID: "table5", Title: "Table 5: CPU over-subscription",
		Header: []string{"ratio", "makespan Y+U", "avgJCT Y+U", "straggler%JCT Y+U",
			"makespan Y+S", "avgJCT Y+S", "cpuImbalance Y+S(%)"}}
	ratios := []float64{1, 2, 4}
	var runs []namedRun
	for _, ratio := range ratios {
		ratio := ratio
		runs = append(runs,
			namedRun{fmt.Sprintf("Y+U x%g", ratio), func() Result {
				return RunBaseline(gen(), baseline.Config{
					Runtime: baseline.MonoSpark, Oversubscribe: ratio, ExecutorMem: 4e9,
				}, paperCluster(), sampleEvery)
			}},
			namedRun{fmt.Sprintf("Y+S x%g", ratio), func() Result {
				return RunBaseline(gen(), baseline.Config{
					Runtime: baseline.Spark, Oversubscribe: ratio, ExecutorMem: 4e9,
				}, paperCluster(), sampleEvery)
			}})
	}
	results := runAll(o, runs)
	for i, ratio := range ratios {
		yu, ys := results[2*i], results[2*i+1]
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%.0f", ratio),
			fmt.Sprintf("%.2f", yu.Makespan),
			fmt.Sprintf("%.2f", yu.AvgJCT),
			fmt.Sprintf("%.2f", yu.StragglerRatio),
			fmt.Sprintf("%.2f", ys.Makespan),
			fmt.Sprintf("%.2f", ys.AvgJCT),
			fmt.Sprintf("%.2f", metrics.Imbalance(ys.PerMachineCPU)),
		})
	}
	return rep
}

// Sec52Net toggles the network term of F(t,w) on TPC-H2.
func Sec52Net(opt Options) *Report {
	o := opt.withDefaults()
	n := o.scaled(25)
	gen := func() *workload.Workload { return workload.TPCH2(n, o.Seed) }
	rep := &Report{ID: "sec52net", Title: "§5.2: the effect of network demands in placement",
		Header: []string{"config", "makespan(s)", "avgJCT(s)", "netImbalance(%)", "cpuImbalance(%)"}}
	configs := []struct {
		name   string
		ignore bool
	}{{"with network demand", false}, {"ignore network demand", true}}
	var runs []namedRun
	for _, c := range configs {
		c := c
		runs = append(runs, namedRun{c.name, func() Result {
			return RunUrsa(gen(), core.Config{IgnoreNetworkDemand: c.ignore}, paperCluster(), sampleEvery)
		}})
	}
	for i, res := range runAll(o, runs) {
		rep.Rows = append(rep.Rows, []string{
			configs[i].name,
			fmt.Sprintf("%.0f", res.Makespan),
			fmt.Sprintf("%.2f", res.AvgJCT),
			fmt.Sprintf("%.2f", netImbalance(res)),
			fmt.Sprintf("%.2f", metrics.Imbalance(res.PerMachineCPU)),
		})
	}
	return rep
}

// netImbalance is a placeholder hook: per-machine network series are
// summarized through the CPU imbalance of the same run when network
// per-machine sampling is unavailable.
func netImbalance(r Result) float64 {
	return metrics.Imbalance(r.PerMachineCPU)
}

// Fig6 throttles the network to 1 and 4 Gbps (§5.2: Ursa keeps whichever
// resource is the bottleneck highly utilized).
func Fig6(opt Options) *Report {
	o := opt.withDefaults()
	n := o.scaled(25)
	rep := &Report{ID: "fig6", Title: "Figure 6: utilization under 1/4 Gbps networks",
		Header: []string{"bandwidth", "makespan(s)", "meanCPU(%)", "meanNET(%)"},
		Series: map[string]*trace.TimeSeries{}}
	bands := []struct {
		label string
		bps   float64
	}{{"1Gbps", 1.25e8}, {"4Gbps", 5e8}, {"10Gbps", 1.25e9}}
	var runs []namedRun
	for _, bw := range bands {
		bw := bw
		runs = append(runs, namedRun{bw.label, func() Result {
			cfg := paperCluster()
			cfg.NetBandwidth = resource.BytesPerSec(bw.bps)
			return RunUrsa(workload.TPCH2(n, o.Seed), core.Config{}, cfg, sampleEvery)
		}})
	}
	for i, res := range runAll(o, runs) {
		rep.Series[bands[i].label] = res.Series
		rep.Rows = append(rep.Rows, []string{
			bands[i].label,
			fmt.Sprintf("%.0f", res.Makespan),
			fmt.Sprintf("%.1f", res.Series.Mean(metrics.SeriesCPU)),
			fmt.Sprintf("%.1f", res.Series.Mean(metrics.SeriesNet)),
		})
	}
	return rep
}

// Fig7 compares stage-aware and per-task placement on TPC-H2.
func Fig7(opt Options) *Report {
	o := opt.withDefaults()
	n := o.scaled(25)
	gen := func() *workload.Workload { return workload.TPCH2(n, o.Seed) }
	rep := &Report{ID: "fig7", Title: "Figure 7: (non-)stage-aware placement",
		Header: []string{"config", "policy", "makespan(s)", "avgJCT(s)"},
		Series: map[string]*trace.TimeSeries{}}
	type combo struct {
		name    string
		policy  core.Policy
		disable bool
	}
	var combos []combo
	for _, policy := range []core.Policy{core.EJF, core.SRJF} {
		for _, c := range []struct {
			name    string
			disable bool
		}{{"stage-aware", false}, {"per-task", true}} {
			combos = append(combos, combo{c.name, policy, c.disable})
		}
	}
	var runs []namedRun
	for _, c := range combos {
		c := c
		runs = append(runs, namedRun{c.name, func() Result {
			return RunUrsa(gen(), core.Config{Policy: c.policy, DisableStageAware: c.disable},
				paperCluster(), sampleEvery)
		}})
	}
	for i, res := range runAll(o, runs) {
		c := combos[i]
		if c.policy == core.EJF {
			rep.Series[c.name] = res.Series
		}
		rep.Rows = append(rep.Rows, []string{
			c.name, c.policy.String(),
			fmt.Sprintf("%.0f", res.Makespan),
			fmt.Sprintf("%.2f", res.AvgJCT),
		})
	}
	return rep
}

// Table6 isolates job ordering (JO) and monotask ordering (MO).
func Table6(opt Options) *Report {
	o := opt.withDefaults()
	n := o.scaled(25)
	gen := func() *workload.Workload { return workload.TPCH2(n, o.Seed) }
	rep := &Report{ID: "table6", Title: "Table 6: job/task ordering",
		Header: []string{"config", "makespan EJF", "avgJCT EJF", "makespan SRJF", "avgJCT SRJF"}}
	configs := []struct {
		name    string
		jobOff  bool
		monoOff bool
	}{
		{"JO", false, true},
		{"MO", true, false},
		{"JO + MO", false, false},
	}
	policies := []core.Policy{core.EJF, core.SRJF}
	var runs []namedRun
	for _, c := range configs {
		for _, policy := range policies {
			c, policy := c, policy
			runs = append(runs, namedRun{fmt.Sprintf("%s/%s", c.name, policy), func() Result {
				return RunUrsa(gen(), core.Config{
					Policy:                  policy,
					DisableJobOrdering:      c.jobOff,
					DisableMonotaskOrdering: c.monoOff,
				}, paperCluster(), 0)
			}})
		}
	}
	results := runAll(o, runs)
	for i, c := range configs {
		row := []string{c.name}
		for pi := range policies {
			res := results[i*len(policies)+pi]
			row = append(row,
				fmt.Sprintf("%.2f", res.Makespan),
				fmt.Sprintf("%.2f", res.AvgJCT))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// Fig8 runs Type-1 and Type-2 solo on Ursa and reports their alternating
// CPU/network utilization.
func Fig8(opt Options) *Report {
	o := opt.withDefaults()
	rep := &Report{ID: "fig8", Title: "Figure 8: solo synthetic job utilization",
		Header: []string{"type", "soloJCT(s)", "meanCPU(%)", "meanNET(%)"},
		Series: map[string]*trace.TimeSeries{}}
	configs := []struct {
		name string
		cfg  workload.SyntheticConfig
	}{{"type1", workload.Type1()}, {"type2", workload.Type2()}}
	var runs []namedRun
	for _, c := range configs {
		c := c
		runs = append(runs, namedRun{c.name, func() Result {
			return RunUrsa(workload.Single(c.cfg.Spec(c.name)), core.Config{}, paperCluster(),
				500*eventloop.Millisecond)
		}})
	}
	for i, res := range runAll(o, runs) {
		rep.Series[configs[i].name] = res.Series
		rep.Rows = append(rep.Rows, []string{
			configs[i].name,
			fmt.Sprintf("%.1f", res.JCTs[0]),
			fmt.Sprintf("%.1f", res.Series.Mean(metrics.SeriesCPU)),
			fmt.Sprintf("%.1f", res.Series.Mean(metrics.SeriesNet)),
		})
	}
	return rep
}

// soloSyntheticRun measures one synthetic type's solo run on Ursa.
func soloSyntheticRun(cfg workload.SyntheticConfig) Result {
	return RunUrsa(workload.Single(cfg.Spec("solo")), core.Config{}, paperCluster(), 0)
}

// Fig9 runs Setting 1 (§5.3): Type-1 jobs submitted together under EJF,
// comparing actual to ideal-overlap expected JCTs. The solo-JCT calibration
// run and the main run are independent simulations and execute in parallel.
func Fig9(opt Options) *Report {
	o := opt.withDefaults()
	n := o.scaled(40)
	runs := []namedRun{
		{"solo-type1", func() Result { return soloSyntheticRun(workload.Type1()) }},
		{"setting1", func() Result {
			return RunUrsa(workload.Setting1(n), core.Config{Policy: core.EJF}, paperCluster(), sampleEvery)
		}},
	}
	results := runAll(o, runs)
	solo1 := results[0].JCTs[0]
	res := results[1]
	types := make([]int, n)
	for i := range types {
		types[i] = 1
	}
	expected := workload.ExpectedJCTs(types,
		map[int]float64{1: solo1}, map[int]float64{1: solo1 / 5})
	rep := &Report{ID: "fig9", Title: "Figure 9: Setting 1 JCT vs expectation",
		Header: []string{"job", "actualJCT(s)", "expectedJCT(s)", "ratio"},
		Series: map[string]*trace.TimeSeries{"utilization": res.Series}}
	appendJCTRows(rep, res.JCTs, expected)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("solo Type-1 JCT: %.1fs; meanCPU %.1f%%", solo1, res.Series.Mean(metrics.SeriesCPU)))
	return rep
}

// Fig10 runs Setting 2 (§5.3): alternating Type-1/Type-2 under EJF and
// SRJF. All four simulations (two solo calibrations, two policies) run in
// parallel.
func Fig10(opt Options) *Report {
	o := opt.withDefaults()
	nEach := o.scaled(20)
	runs := []namedRun{
		{"solo-type1", func() Result { return soloSyntheticRun(workload.Type1()) }},
		{"solo-type2", func() Result { return soloSyntheticRun(workload.Type2()) }},
		{"EJF", func() Result {
			return RunUrsa(workload.Setting2(nEach), core.Config{Policy: core.EJF}, paperCluster(), 0)
		}},
		{"SRJF", func() Result {
			return RunUrsa(workload.Setting2(nEach), core.Config{Policy: core.SRJF}, paperCluster(), 0)
		}},
	}
	results := runAll(o, runs)
	solo1, solo2 := results[0].JCTs[0], results[1].JCTs[0]
	soloJCT := map[int]float64{1: solo1, 2: solo2}
	stage := map[int]float64{1: solo1 / 5, 2: solo2 / 5}

	rep := &Report{ID: "fig10", Title: "Figure 10: Setting 2 JCT vs expectation",
		Header: []string{"policy", "job", "actualJCT(s)", "expectedJCT(s)", "ratio"}}

	types := make([]int, 2*nEach)
	for i := range types {
		types[i] = 1 + i%2
	}
	for pi, policy := range []core.Policy{core.EJF, core.SRJF} {
		res := results[2+pi]
		var expected []float64
		if policy == core.EJF {
			expected = workload.ExpectedJCTs(types, soloJCT, stage)
		} else {
			expected = expectedSRJF(types, soloJCT, stage)
		}
		for i := range res.JCTs {
			ratio := 0.0
			if expected[i] > 0 {
				ratio = res.JCTs[i] / expected[i]
			}
			rep.Rows = append(rep.Rows, []string{
				policy.String(), fmt.Sprintf("%d", i),
				fmt.Sprintf("%.1f", res.JCTs[i]),
				fmt.Sprintf("%.1f", expected[i]),
				fmt.Sprintf("%.2f", ratio),
			})
		}
	}
	return rep
}

// expectedSRJF computes the ideal SRJF schedule for Setting 2: all smaller
// Type-2 jobs run (pairwise overlapped) before the Type-1 jobs.
func expectedSRJF(types []int, soloJCT, stage map[int]float64) []float64 {
	idx := make([]int, len(types))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return soloJCT[types[idx[a]]] < soloJCT[types[idx[b]]]
	})
	ordered := make([]int, len(types))
	for pos, i := range idx {
		ordered[pos] = types[i]
	}
	expOrdered := workload.ExpectedJCTs(ordered, soloJCT, stage)
	out := make([]float64, len(types))
	for pos, i := range idx {
		out[i] = expOrdered[pos]
	}
	return out
}

func appendJCTRows(rep *Report, actual, expected []float64) {
	for i := range actual {
		ratio := 0.0
		if expected[i] > 0 {
			ratio = actual[i] / expected[i]
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%.1f", actual[i]),
			fmt.Sprintf("%.1f", expected[i]),
			fmt.Sprintf("%.2f", ratio),
		})
	}
}

// AblationNetConcurrency sweeps the per-worker network monotask limit.
func AblationNetConcurrency(opt Options) *Report {
	o := opt.withDefaults()
	n := o.scaled(25)
	rep := &Report{ID: "ablation-netcc", Title: "Ablation: network monotask concurrency",
		Header: []string{"limit", "makespan(s)", "avgJCT(s)"}}
	limits := []int{1, 2, 4, 8}
	var runs []namedRun
	for _, cc := range limits {
		cc := cc
		runs = append(runs, namedRun{fmt.Sprintf("cc=%d", cc), func() Result {
			return RunUrsa(workload.TPCH2(n, o.Seed), core.Config{NetConcurrency: cc}, paperCluster(), 0)
		}})
	}
	for i, res := range runAll(o, runs) {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", limits[i]),
			fmt.Sprintf("%.2f", res.Makespan),
			fmt.Sprintf("%.2f", res.AvgJCT),
		})
	}
	return rep
}

// AblationFault injects machine failures mid-workload (§4.3): incomplete
// tasks on the failed machines are reset and rescheduled on the survivors;
// completed monotask outputs are treated as checkpointed. The overhead is
// re-executed work plus the lost capacity.
func AblationFault(opt Options) *Report {
	o := opt.withDefaults()
	n := o.scaled(25)
	rep := &Report{ID: "ablation-fault", Title: "Ablation: worker failures (TPC-H2)",
		Header: []string{"failures", "makespan(s)", "avgJCT(s)", "vs healthy"}}
	killCounts := []int{0, 1, 3}
	var runs []namedRun
	for _, kills := range killCounts {
		kills := kills
		runs = append(runs, namedRun{fmt.Sprintf("kills=%d", kills), func() Result {
			return runUrsa(workload.TPCH2(n, o.Seed), core.Config{}, paperCluster(), 0, failWorkers(kills))
		}})
	}
	results := runAll(o, runs)
	healthy := results[0].Makespan
	for i, kills := range killCounts {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", kills),
			fmt.Sprintf("%.2f", results[i].Makespan),
			fmt.Sprintf("%.2f", results[i].AvgJCT),
			fmt.Sprintf("%.2fx", results[i].Makespan/healthy),
		})
	}
	return rep
}

// failWorkers is the fault scenario: workers 0..kills-1 fail ten seconds
// apart, the first twenty seconds into the run.
func failWorkers(kills int) func(*core.System) {
	return func(sys *core.System) {
		for k := 0; k < kills; k++ {
			id := k
			sys.Loop.At(eventloop.Time(eventloop.Duration(20+10*k)*eventloop.Second),
				func() { sys.FailWorker(id) })
		}
	}
}

// AblationEPT sweeps the expected-processing-time horizon.
func AblationEPT(opt Options) *Report {
	o := opt.withDefaults()
	n := o.scaled(25)
	rep := &Report{ID: "ablation-ept", Title: "Ablation: EPT vs scheduling interval",
		Header: []string{"EPT(ms)", "makespan(s)", "avgJCT(s)"}}
	epts := []eventloop.Duration{100, 150, 300, 1000}
	var runs []namedRun
	for _, ept := range epts {
		ept := ept
		runs = append(runs, namedRun{fmt.Sprintf("ept=%d", ept), func() Result {
			return RunUrsa(workload.TPCH2(n, o.Seed),
				core.Config{EPT: ept * eventloop.Millisecond}, paperCluster(), 0)
		}})
	}
	for i, res := range runAll(o, runs) {
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%d", epts[i]),
			fmt.Sprintf("%.2f", res.Makespan),
			fmt.Sprintf("%.2f", res.AvgJCT),
		})
	}
	return rep
}
