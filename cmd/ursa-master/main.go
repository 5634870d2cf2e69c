// Command ursa-master runs the distributed Ursa master: the scheduling core
// (admission, Algorithm-1 placement, per-resource worker queues) driving a
// cluster of ursa-worker agents over TCP. Jobs travel as (workload, params)
// pairs from the shared registry; monotask completions carry measured
// durations that feed the per-worker rate monitors (§4.2.2), and worker
// failures recover through the §4.3 checkpoint path.
//
// Usage:
//
//	ursa-master -listen 127.0.0.1:7400 -workers 2 -workload wordcount
//	ursa-master -workers 3 -workload sql_analytics -query 1
//	ursa-master -workers 2 -serve -tenant-weights ops=3,batch=1
//
// With -serve the master runs the multi-tenant submission front door
// instead of a preset workload: clients (ursa-sql -master, or any
// wire-protocol speaker) submit (workload, params) jobs over the same
// control port, batched through the admission pipeline under weighted fair
// sharing. The first SIGINT/SIGTERM drains gracefully — new submissions are
// rejected, queued jobs are cancelled with a terminal status, admitted jobs
// finish — and the process exits 0; a second forces a hard stop.
//
// Without -serve, SIGINT/SIGTERM drain the preset run: in-flight work
// aborts through the executor seam, a final transport line is printed, and
// the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ursa/internal/core"
	"ursa/internal/elastic"
	"ursa/internal/remote"
	"ursa/internal/remote/workload"
	"ursa/internal/resource"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:7400", "control-plane listen address")
		shuffle   = flag.String("shuffle-listen", "127.0.0.1:0", "canonical-store shuffle listen address")
		workers   = flag.Int("workers", 2, "worker agents to wait for")
		cores     = flag.Int("cores-per-worker", 2, "scheduler CPU concurrency per worker")
		wl        = flag.String("workload", "wordcount", "registered workload to run (see -list)")
		list      = flag.Bool("list", false, "list registered workloads and exit")
		jobs      = flag.Int("jobs", 1, "copies of the workload to submit")
		lines     = flag.Int("lines", 20000, "wordcount: input lines")
		parts     = flag.Int("parts", 8, "wordcount: input partitions")
		query     = flag.Int("query", 0, "sql_analytics: canned query index")
		sales     = flag.Int("sales-rows", 4000, "sql_analytics: generated sales rows")
		policy    = flag.String("policy", "ejf", "ejf | srjf")
		interfPen = flag.Bool("interference-penalty", false,
			"steer placement away from workers whose measured rates run below their advertised profile (see DESIGN.md §15)")
		hb       = flag.Duration("heartbeat", 100*time.Millisecond, "worker heartbeat interval")
		stats    = flag.Duration("stats", time.Second, "period of the four stats lines: transport, ingest (-serve), journal, elastic (0 disables)")
		showRows = flag.Int("show-rows", 10, "result rows to print per job")
		timeout  = flag.Duration("timeout", 5*time.Minute, "abort if the run exceeds this")

		// Data-plane knobs (see DESIGN.md §11).
		compress = flag.Bool("shuffle-compress", false,
			"compress shuffle contributions (in effect per worker only when the worker also enables it)")
		memBudget = flag.Int64("shuffle-mem-budget", 0,
			"max in-memory bytes per job's canonical contribution store before spilling to disk (0 = never spill)")
		spillDir = flag.String("shuffle-spill-dir", "",
			"directory for contribution spill files (empty = system temp dir)")

		// Front-door knobs (see DESIGN.md §12).
		serve = flag.Bool("serve", false,
			"run the multi-tenant submission front door instead of a preset workload")
		tenantWeights = flag.String("tenant-weights", "",
			"weighted fair-share map as name=weight pairs, e.g. ops=3,batch=1 (unlisted tenants weigh 1)")
		tenantIntakeCap = flag.Int("tenant-intake-cap", 0,
			"max queued submissions per tenant before rejection (0 = global cap only)")

		// Elastic-cluster knobs (see DESIGN.md §14).
		elasticMode = flag.Bool("elastic", false,
			"accept mid-run worker joins and graceful drains; losing every worker pauses admission instead of failing the run")
		autoscale = flag.Bool("autoscale", false,
			"run the utilization-driven autoscaler (implies -elastic): spawn -worker-bin on admission pressure, drain idle workers in troughs")
		minWorkers = flag.Int("min-workers", 0,
			"autoscaler lower bound on cluster size (0 = -workers)")
		maxWorkers = flag.Int("max-workers", 0,
			"autoscaler upper bound on cluster size (0 = -workers)")
		autoscaleInterval = flag.Duration("autoscale-interval", 0,
			"autoscaler policy tick period (0 = default 250ms)")
		workerBin = flag.String("worker-bin", "ursa-worker",
			"worker binary the autoscaler spawns on scale-up")
		reserveCorrect = flag.Bool("reserve-correct", false,
			"learn per-workload reservation corrections from observed memory peaks (DRESS-style dynamic reservation)")
		drainID = flag.Int("drain", -1,
			"gracefully drain this worker id once the cluster assembles (ops/demo; -1 disables)")

		// Journal / failover knobs (see DESIGN.md §13).
		journalDir = flag.String("journal-dir", "",
			"directory for the control-plane event journal, snapshots and lease (empty disables journaling)")
		standby = flag.Bool("standby", false,
			"run as a warm standby: watch -journal-dir's lease and take over when the primary dies")
		lease = flag.Duration("lease", 0,
			"primary lease TTL; a standby takes over after the lease expires unrenewed (0 = default 2s)")
		snapshotEvery = flag.Int("snapshot-every", 0,
			"journal snapshot/compaction cadence in events (0 = default)")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() != f.DefValue })
	if err := checkFlags(set); err != nil {
		fmt.Fprintf(os.Stderr, "ursa-master: %v\n", err)
		os.Exit(2)
	}
	if *list {
		for _, name := range workload.Names() {
			fmt.Println(name)
		}
		return
	}

	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ursa-master: %v\n", err)
		os.Exit(2)
	}
	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		fatal(err)
	}
	cfg := remote.Config{
		Addr:              *listen,
		Serve:             *serve,
		TenantIntakeCap:   *tenantIntakeCap,
		JournalDir:        *journalDir,
		LeaseTTL:          *lease,
		SnapshotEvery:     *snapshotEvery,
		ShuffleAddr:       *shuffle,
		Workers:           *workers,
		CoresPerWorker:    *cores,
		HeartbeatInterval: *hb,
		StatsInterval:     *stats,
		Compress:          *compress,
		ShuffleMemBudget:  *memBudget,
		ShuffleSpillDir:   *spillDir,
		Elastic:           *elasticMode,
		Autoscale:         *autoscale,
		MinWorkers:        *minWorkers,
		MaxWorkers:        *maxWorkers,
		AutoscaleInterval: *autoscaleInterval,
		ReserveCorrect:    *reserveCorrect,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *autoscale {
		// Scaled-up workers are spawned as processes pointed back at this
		// master; -drain-on-signal gives them the graceful exit path, and the
		// drain protocol (DrainDone) retires them on scale-down.
		cfg.Provisioner = &elastic.ProcessProvisioner{
			Binary: *workerBin,
			Args:   []string{"-master", *listen, "-drain-on-signal", "-quiet"},
			Logf:   cfg.Logf,
		}
	}
	cfg.Core.Policy = pol
	cfg.Core.InterferencePenalty = *interfPen
	cfg.Core.TenantWeights = weights
	if *standby {
		runStandby(cfg, *serve, *showRows, *timeout)
		return
	}
	m, err := remote.NewMaster(cfg)
	if err != nil {
		fatal(err)
	}
	defer closeMaster(m)
	fmt.Printf("ursa-master: control %s shuffle %s — waiting for %d workers\n",
		m.Addr(), m.ShuffleAddr(), *workers)

	if *drainID >= 0 {
		id := *drainID
		go func() {
			if err := m.WaitWorkers(context.Background()); err == nil {
				m.DrainWorker(id, "operator (-drain)")
			}
		}()
	}

	if *serve {
		runServe(m)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	for i := 0; i < *jobs && ctx.Err() == nil; i++ {
		name, params := jobSpec(*wl, *lines, *parts, *query, *sales)
		if _, err := m.Submit(name, params); err != nil {
			fatal(err)
		}
	}

	wallStart := time.Now()
	runErr := m.Run(ctx)
	wall := time.Since(wallStart)
	interrupted := runErr != nil && errors.Is(runErr, context.Canceled)
	if runErr != nil && !interrupted {
		fatal(runErr)
	}

	if interrupted {
		fmt.Printf("\nursa-master: interrupted, drained after %.1fs\n", wall.Seconds())
	} else {
		fmt.Printf("\n%-28s %10s\n", "job", "JCT")
		for _, j := range m.Jobs() {
			fmt.Printf("%-28s %9.1fms\n", j.Built.Spec.Name, j.Live.Core.JCT().Seconds()*1e3)
		}
		fmt.Printf("\nwall makespan  %9.1fms\n", wall.Seconds()*1e3)
		printResults(m, *showRows)
		fmt.Println("\nmeasured processing rates (rows/s, fed back into APT_r(w)):")
		for i, w := range m.Sys.Core.Workers {
			fmt.Printf("  worker %d:  cpu %11.0f   net %11.0f   disk %11.0f\n",
				i, w.Rate(resource.CPU), w.Rate(resource.Net), w.Rate(resource.Disk))
		}
	}
	// Final transport line: the run's data-plane summary, printed on both
	// the clean and the interrupted path.
	fmt.Printf("\nfinal %s\n", m.Transport.StatsLine(time.Now()))
}

// runServe runs the submission front door until a drain completes. The first
// SIGINT/SIGTERM starts a graceful drain (reject new submissions, cancel
// queued jobs with a terminal status, let admitted jobs finish); a second
// signal hard-cancels the run.
func runServe(m *remote.Master) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigC := make(chan os.Signal, 2)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigC)
	go func() {
		<-sigC
		fmt.Fprintln(os.Stderr, "ursa-master: draining — new submissions rejected (^C again to force quit)")
		m.Drain()
		<-sigC
		cancel()
	}()

	fmt.Println("ursa-master: front door open — submit with ursa-sql -master or a wire client")
	wallStart := time.Now()
	runErr := m.Run(ctx)
	wall := time.Since(wallStart)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		fatal(runErr)
	}
	if ing := m.Ingest(); ing != nil {
		fmt.Printf("\nursa-master: drained after %.1fs — %s\n", wall.Seconds(), ing.StatsLine())
	}
	fmt.Printf("final %s\n", m.Transport.StatsLine(time.Now()))
}

// runStandby waits for the primary's lease to expire, takes over as the
// next master generation, and drives the inherited backlog (or reopens the
// front door in serve mode). Workers started with both addresses in -master
// re-attach on their own once the takeover accepts registrations.
func runStandby(cfg remote.Config, serve bool, showRows int, timeout time.Duration) {
	s, err := remote.NewStandby(cfg)
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	fmt.Printf("ursa-master: standby on %s — watching %s for lease expiry\n", s.Addr(), cfg.JournalDir)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	m, err := s.Takeover(ctx)
	if err != nil {
		fatal(err)
	}
	defer closeMaster(m)
	fmt.Printf("ursa-master: took over as generation %d — waiting for workers to re-attach\n", m.Generation())
	if serve {
		runServe(m)
		return
	}
	runCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	wallStart := time.Now()
	if err := m.Run(runCtx); err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
	fmt.Printf("\nursa-master: inherited backlog finished in %.1fs\n", time.Since(wallStart).Seconds())
	printResults(m, showRows)
	fmt.Printf("\nfinal %s\n", m.Transport.StatsLine(time.Now()))
}

// flagNeeds lists the flags that act only through another one: given the
// first without the second, the master would parse it and run as if it had
// not been passed (-min-workers 1 -max-workers 4 without -autoscale never
// scales), so it refuses instead.
var flagNeeds = []struct{ flag, needs string }{
	{"min-workers", "autoscale"},
	{"max-workers", "autoscale"},
	{"autoscale-interval", "autoscale"},
	{"worker-bin", "autoscale"},
	{"lease", "journal-dir"},
	{"snapshot-every", "journal-dir"},
	{"standby", "journal-dir"},
	{"tenant-intake-cap", "serve"},
}

// checkFlags reports the first flag in set (the flags the command line gave
// a non-default value) whose prerequisite is missing, and the one conflict:
// a standby inherits its cluster and returns before -drain is read.
func checkFlags(set map[string]bool) error {
	for _, d := range flagNeeds {
		if set[d.flag] && !set[d.needs] {
			return fmt.Errorf("-%s needs -%s: without it the flag is not read", d.flag, d.needs)
		}
	}
	if set["drain"] && set["standby"] {
		return errors.New("-drain is not read under -standby (a standby inherits its cluster)")
	}
	return nil
}

func jobSpec(wl string, lines, parts, query, sales int) (string, []byte) {
	switch wl {
	case "wordcount":
		return workload.WordCount(workload.WordCountParams{Lines: lines, InParts: parts, OutParts: parts / 2})
	case "sql_analytics":
		return workload.SQLAnalytics(workload.SQLParams{QueryIndex: query, SalesRows: sales})
	default:
		return wl, nil // custom registered workload, default params
	}
}

func printResults(m *remote.Master, limit int) {
	for _, j := range m.Jobs() {
		rows, err := j.ResultRows()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ursa-master: %s results: %v\n", j.Built.Spec.Name, err)
			continue
		}
		fmt.Printf("\n%s: %d result rows", j.Built.Spec.Name, len(rows))
		if cols := j.Built.Cols; cols != nil {
			fmt.Printf(" %v", cols)
		}
		fmt.Println()
		for i, r := range rows {
			if i >= limit {
				fmt.Printf("  … %d more\n", len(rows)-limit)
				break
			}
			fmt.Printf("  %v\n", r)
		}
	}
}

// parseTenantWeights parses "-tenant-weights ops=3,batch=1" into the
// scheduler's fair-share map.
func parseTenantWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant-weights: %q is not name=weight", kv)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("tenant-weights: %q needs a positive weight", kv)
		}
		out[name] = w
	}
	return out, nil
}

// closeMaster ends every run: a journal that failed at any point up to its
// last sync inside Close makes the exit status non-zero, results printed.
func closeMaster(m *remote.Master) {
	if err := m.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ursa-master: %v\n", err)
	os.Exit(1)
}
