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
// Every run ends with a drain. Without -serve it begins at once: the master
// exits 0 when the -jobs (or a standby's inherited backlog) have finished, at
// once with none; SIGINT/SIGTERM stops it early, also with exit 0.
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
		stats    = flag.Duration("stats", time.Second, "period of the four stats lines: transport, ingest, journal, elastic (0 disables)")
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

	// Watched before the -jobs are built, so an early interrupt stops the run.
	sigC := make(chan os.Signal, 2)
	signal.Notify(sigC, syscall.SIGINT, syscall.SIGTERM)
	var m *remote.Master
	if *standby {
		m = takeOver(cfg)
	} else {
		if m, err = remote.NewMaster(cfg); err != nil {
			fatal(err)
		}
		fmt.Printf("ursa-master: control %s shuffle %s — waiting for %d workers\n",
			m.Addr(), m.ShuffleAddr(), *workers)
		for i := 0; i < *jobs && !*serve; i++ {
			name, params := jobSpec(*wl, *lines, *parts, *query, *sales)
			if _, err := m.Submit(name, params); err != nil {
				fatal(err)
			}
		}
	}
	defer closeMaster(m)

	if *drainID >= 0 {
		id := *drainID
		go func() {
			if err := m.WaitWorkers(context.Background()); err == nil {
				m.DrainWorker(id, "operator (-drain)")
			}
		}()
	}
	run(m, sigC, *serve, *showRows, *timeout)
}

// run drives m until its drain completes and prints the held jobs' JCTs and
// results, the measured rates, the ingest and final transport lines. A batch
// run is bounded by timeout and stops at the first SIGINT/SIGTERM; a serving
// run drains at the first and stops at the second.
func run(m *remote.Master, sigC <-chan os.Signal, serve bool, showRows int, timeout time.Duration) {
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	if !serve {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	go func() {
		<-sigC
		if serve {
			fmt.Fprintln(os.Stderr, "ursa-master: draining — new submissions rejected (^C again to force quit)")
			m.Drain()
			<-sigC
		}
		stop()
	}()
	if serve {
		fmt.Println("ursa-master: front door open — submit with ursa-sql -master or a wire client")
	}

	wallStart := time.Now()
	runErr := m.Run(ctx)
	wall := time.Since(wallStart).Round(time.Millisecond)
	interrupted := errors.Is(runErr, context.Canceled)
	switch {
	case interrupted:
		fmt.Printf("\nursa-master: interrupted after %v\n", wall)
	case runErr != nil && !heldFinished(m):
		fatal(runErr)
	default:
		fmt.Printf("\nursa-master: drained after %v\n", wall)
		printJobs(m, showRows)
		fmt.Println("\nmeasured processing rates (rows/s, fed back into APT_r(w)):")
		for i, w := range m.Sys.Core.Workers {
			fmt.Printf("  worker %d:  cpu %11.0f   net %11.0f   disk %11.0f\n",
				i, w.Rate(resource.CPU), w.Rate(resource.Net), w.Rate(resource.Disk))
		}
	}
	fmt.Printf("\n%s\nfinal %s\n", m.Ingest().StatsLine(), m.Transport.StatsLine(time.Now()))
	if runErr != nil && !interrupted {
		fatal(runErr) // the journal failed after every held job finished
	}
}

// takeOver waits for the primary's lease to expire and returns the next
// master generation, whose held jobs are the inherited backlog. Workers
// started with both addresses in -master re-attach on their own.
func takeOver(cfg remote.Config) *remote.Master {
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
	fmt.Printf("ursa-master: took over as generation %d — waiting for workers to re-attach\n", m.Generation())
	return m
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

// heldFinished reports whether m held jobs and all finished: a run that fails
// after that lost only its journal, and its results stand.
func heldFinished(m *remote.Master) bool {
	jobs := m.Jobs()
	for _, j := range jobs {
		if j.Live == nil || j.Live.Core.State != core.JobFinished {
			return false
		}
	}
	return len(jobs) > 0
}

// printJobs prints each held job's JCT and its first limit result rows.
func printJobs(m *remote.Master, limit int) {
	for _, j := range m.Jobs() {
		rows, err := j.ResultRows()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ursa-master: %s results: %v\n", j.Built.Spec.Name, err)
			continue
		}
		fmt.Printf("\n%s: jct %.1fms, %d result rows",
			j.Built.Spec.Name, j.Live.Core.JCT().Seconds()*1e3, len(rows))
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
