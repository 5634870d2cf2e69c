package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"ursa/internal/cluster"
	"ursa/internal/core"
	"ursa/internal/eventloop"
	"ursa/internal/localrt"
	"ursa/internal/metrics"
	"ursa/internal/remote"
	"ursa/internal/remote/agent"
	rworkload "ursa/internal/remote/workload"
)

// Load shape shared by the live workloads.
const (
	liveAgents = 2
	paramPool  = 64
	jitter     = 0.10 // ±share applied to Rows / SalesRows per job
	satWindow  = 64   // per-connection window of the saturation probe
	satShare   = 0.5  // length of the saturation probe, as a share of an epoch
	// minPhaseJobs is how many jobs must finish inside a timed phase.
	minPhaseJobs = 3
	liveEpochs   = 5 // per run; runOpts.epochs
)

// runOpts is one run's arguments.
type runOpts struct {
	seed    int64
	seconds float64       // length of the timed phase
	warmup  time.Duration // closed loops run this long before anything is measured
	trace   bool
	outDir  string // span files and journal directories go here
	simJobs int    // jobs per simulation run
	epochs  int    // fresh clusters a live run is split over
}

func sleepSeconds(s float64) { time.Sleep(time.Duration(s * float64(time.Second))) }

// liveWorkload is one of the three workloads that run on the loopback
// cluster through the front door.
type liveWorkload struct {
	name    string
	conns   int
	window  int
	cores   int     // CoresPerWorker, and each agent's executor parallelism
	mem     float64 // MemPerWorker; 0 = unbounded
	policy  core.Policy
	journal bool
	// holdMs and slots describe the admission gate of slot-hold: slots jobs
	// hold a reservation at once and each holds it for at least holdMs.
	holdMs int
	slots  int
	// sat adds the saturation probe to traced runs.
	sat bool
	// job draws one job of the workload's shape from the seeded stream.
	job func(rng *rand.Rand) (string, []byte)
}

func jittered(rng *rand.Rand, base int) int {
	return int(float64(base) * (1 - jitter + 2*jitter*rng.Float64()))
}

var liveWorkloads = map[string]*liveWorkload{
	"sched-short": {
		name: "sched-short", conns: 2, window: 8, cores: 2, journal: true, sat: true,
		job: func(rng *rand.Rand) (string, []byte) {
			return rworkload.Micro(rworkload.MicroParams{Rows: jittered(rng, 64), MemEstimate: 1})
		},
	},
	"slot-hold": {
		// Sleeping monotasks hold a core slot, so cores must not be what
		// binds: 16 per worker against 8 admission slots in all.
		name: "slot-hold", conns: 2, window: 16, cores: 16, mem: 4, policy: core.SRJF,
		holdMs: 50, slots: 8,
		job: func(rng *rand.Rand) (string, []byte) {
			return rworkload.Micro(rworkload.MicroParams{Rows: jittered(rng, 64), MemEstimate: 1, HoldMs: 50})
		},
	},
	"shuffle-sql": {
		// One job at a time. Two of these jobs saturate both cores of the
		// reference box (JCT 316 ms against 160 ms alone, for 6.6 against
		// 5.8 jobs/s), and a saturated run amplifies every disturbance of a
		// shared machine: 17 % drift where the single-threaded simulator
		// saw 10 %.
		name: "shuffle-sql", conns: 1, window: 1, cores: 2,
		job: func(rng *rand.Rand) (string, []byte) {
			return rworkload.SQLAnalytics(rworkload.SQLParams{QueryIndex: 1, SalesRows: jittered(rng, 20000)})
		},
	},
}

func (w *liveWorkload) config(journalDir string) remote.Config {
	return remote.Config{
		Serve:          true,
		CoresPerWorker: w.cores,
		MemPerWorker:   w.mem,
		// A busy box must never trip liveness: 10 s of silence, not 300 ms.
		HeartbeatInterval: 250 * time.Millisecond,
		HeartbeatMisses:   40,
		JournalDir:        journalDir,
		Core:              core.Config{Policy: w.policy},
	}
}

// jobStream is the seeded input: a fixed pool of params drawn up front, then
// handed out round-robin, so the program under test sees only generated
// inputs and the same seed gives the same sequence.
type jobStream struct {
	name   string
	params [][]byte
	n      atomic.Uint64
}

func newJobStream(w *liveWorkload, seed int64) *jobStream {
	rng := rand.New(rand.NewSource(seed))
	s := &jobStream{}
	for i := 0; i < paramPool; i++ {
		name, p := w.job(rng)
		s.name = name
		s.params = append(s.params, p)
	}
	return s
}

func (s *jobStream) next() (string, []byte) {
	i := s.n.Add(1) - 1
	return s.name, s.params[i%uint64(len(s.params))]
}

// liveCluster is one running loopback cluster with its front-door
// connections and the canary job pre-submitted before the door opened.
type liveCluster struct {
	lc         *remote.LocalCluster
	runErr     chan error
	journalDir string
	conns      []*lgConn
	traced     atomic.Bool

	// accepted is when the first front-door job was acked: the end of set-up.
	accepted time.Time

	canary       *remote.RemoteJob
	canaryName   string
	canaryParams []byte
}

// startLive brings a cluster up the way a deployment would: listen, register
// the agents, open the front door, connect the clients, get a first job
// accepted. It returns once that job has also finished, so a torn-down
// set-up leaves nothing running.
func startLive(w *liveWorkload, stream *jobStream, outDir string) (*liveCluster, error) {
	c := &liveCluster{runErr: make(chan error, 1)}
	if w.journal {
		var err error
		if c.journalDir, err = os.MkdirTemp(outDir, "journal-"); err != nil {
			return nil, err
		}
	}
	lc, err := remote.StartLocalCluster(liveAgents, w.config(c.journalDir), agent.Config{Cores: w.cores})
	if err != nil {
		c.removeJournal()
		return nil, err
	}
	c.lc = lc
	// The canary is the workload's first job, submitted the batch way before
	// the door opens; its rows are compared with direct execution at the end.
	c.canaryName, c.canaryParams = stream.name, stream.params[0]
	c.canary, err = lc.Master.Submit(c.canaryName, c.canaryParams)
	if err != nil {
		lc.Close()
		c.removeJournal()
		return nil, fmt.Errorf("canary submit: %w", err)
	}
	go func() { c.runErr <- lc.Master.Run(context.Background()) }()
	for i := 0; i < w.conns; i++ {
		conn, err := dialConn(lc.Master.Addr(), &c.traced)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.conns = append(c.conns, conn)
	}
	timer := time.NewTimer(statusFallback)
	defer timer.Stop()
	name, params := stream.next()
	r := c.conns[0].runJob(name, params, timer)
	if r.failed {
		c.stop()
		return nil, fmt.Errorf("first job: %s", r.why)
	}
	c.accepted = r.ack
	return c, nil
}

func (c *liveCluster) removeJournal() {
	if c.journalDir != "" {
		os.RemoveAll(c.journalDir)
	}
}

// stop drains the front door, waits for the control loop to exit and tears
// everything down. It returns the master's Run error, if any.
func (c *liveCluster) stop() error {
	c.lc.Master.Drain()
	var err error
	select {
	case err = <-c.runErr:
	case <-time.After(30 * time.Second):
		err = fmt.Errorf("master did not drain within 30s")
	}
	for _, conn := range c.conns {
		conn.cl.Close()
	}
	c.lc.Close()
	c.removeJournal()
	return err
}

// onLoop runs fn on the master's control loop and waits for it.
func (c *liveCluster) onLoop(fn func()) {
	done := make(chan struct{})
	c.lc.Master.Sys.Drv.Send(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
	}
}

// checkCanary compares the canary's rows with direct execution of the same
// (workload, params): build, run on the local runner, apply Finish.
func (c *liveCluster) checkCanary() error {
	got, err := c.canary.ResultRows()
	if err != nil {
		return fmt.Errorf("canary rows: %w", err)
	}
	bj, err := rworkload.Build(c.canaryName, c.canaryParams)
	if err != nil {
		return err
	}
	want, err := directRows(bj)
	if err != nil {
		return err
	}
	g, w := stringify(got), stringify(want)
	if bj.Finish == nil {
		// No ORDER BY: partition arrival order is not part of the result.
		sort.Strings(g)
		sort.Strings(w)
	}
	if len(w) == 0 || !reflect.DeepEqual(g, w) {
		return fmt.Errorf("canary mismatch: cluster gave %d rows, direct execution %d", len(g), len(w))
	}
	return nil
}

func directRows(bj *rworkload.BuiltJob) ([]localrt.Row, error) {
	rows, err := localrt.LocalRunner{}.RunPlan(bj.Plan, bj.Inputs)
	if err != nil {
		return nil, err
	}
	out := rows(bj.Output)
	if bj.Finish != nil {
		return bj.Finish(out)
	}
	return out, nil
}

func stringify(rows []localrt.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	return out
}

// counters is everything read at a phase boundary. All of it comes from
// public counters of the program or from the process itself.
type counters struct {
	at          time.Time
	dispatches  int
	completions int
	rtt         float64 // mean per-worker dispatch→completion EWMA, seconds
	wire, raw   float64
	served      float64
	cpu         time.Duration
	// From runtime.MemStats: TotalAlloc, Mallocs, PauseTotalNs.
	allocBytes, mallocs, gcPauseNs uint64
	snap                           cluster.Snapshot
}

// add accumulates another read's cumulative counters, so that the
// difference of two sums is the sum of the differences over several phases.
func (k *counters) add(o counters) {
	k.dispatches += o.dispatches
	k.completions += o.completions
	k.wire, k.raw, k.served = k.wire+o.wire, k.raw+o.raw, k.served+o.served
	k.cpu += o.cpu
	k.allocBytes += o.allocBytes
	k.mallocs += o.mallocs
	k.gcPauseNs += o.gcPauseNs
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (c *liveCluster) read() counters {
	var k counters
	tr := c.lc.Master.Transport
	for id := 0; id < liveAgents; id++ {
		w := tr.Worker(id)
		k.dispatches += w.Dispatches
		k.completions += w.Completions
		k.rtt += w.RTTEWMA / liveAgents
	}
	k.wire, k.raw = tr.WireBytes(), tr.RawBytes()
	k.served, _ = tr.ServedBytes()
	c.onLoop(func() { k.snap = c.lc.Master.Sys.Cluster.Snap() })
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	k.allocBytes, k.mallocs, k.gcPauseNs = mem.TotalAlloc, mem.Mallocs, mem.PauseTotalNs
	k.cpu = processCPU()
	k.at = time.Now()
	return k
}

// phase is the difference of two counter reads plus the jobs that finished
// between them.
type phase struct {
	seconds float64
	jobs    []jobRecord // finished inside the phase, not failed
	a, b    counters
}

func (p *phase) monotasks() int { return p.b.completions - p.a.completions }

func newPhase(a, b counters, all []jobRecord) *phase {
	p := &phase{a: a, b: b, seconds: b.at.Sub(a.at).Seconds()}
	for _, r := range all {
		if !r.failed && !r.finished.Before(a.at) && r.finished.Before(b.at) {
			p.jobs = append(p.jobs, r)
		}
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// jobsPerS is the phase's job throughput. Jobs are counted from the first
// to the last finish inside the phase, not over the phase's nominal length:
// with jobs of a few hundred milliseconds, whether one more finish falls
// inside the window would otherwise move the rate by several percent.
func (p *phase) jobsPerS() float64 {
	first, last := p.jobs[0].finished, p.jobs[0].finished
	for _, r := range p.jobs {
		if r.finished.Before(first) {
			first = r.finished
		}
		if r.finished.After(last) {
			last = r.finished
		}
	}
	if span := last.Sub(first).Seconds(); len(p.jobs) > 2 && span > 0 {
		return float64(len(p.jobs)-1) / span
	}
	return float64(len(p.jobs)) / p.seconds
}

func (p *phase) launchesPerS() float64 { return float64(p.monotasks()) / p.seconds }

// runResult is what one run hands back to main.
type runResult struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	env       map[string]any
}

func (r *runResult) fail(n int, why string) {
	r.failed += n
	if len(r.problems) < 8 {
		r.problems = append(r.problems, why)
	}
}

// epoch is one slice of a live run: a fresh cluster, set up, warmed up,
// measured, drained and checked. A run is several epochs and reports the
// median over them, for two reasons. The master keeps every finished job's
// canonical store until Close, so over a long phase the heap grows without
// bound and a few huge GC cycles decide the throughput; short epochs keep the
// heap, and with it the run-to-run spread, small. And a burst of noise from
// the machine spoils one epoch, not the run.
type epoch struct {
	setupS float64
	timed  *phase

	// Traced epochs only.
	tr       *tracer
	coreJobs []*core.Job
	sat      float64 // launches/s at the deep window; 0 when not probed

	totalCores, totalMem     float64
	batches, batched         int
	statusDrops              int
	commitCount, stateBytes  int
	journalLine              string
	fetchRetries, fetchFalls int
}

// runEpoch runs one epoch. Failed operations are added to res.
func runEpoch(w *liveWorkload, stream *jobStream, o runOpts, seconds float64, traced, sat bool, res *runResult) (*epoch, error) {
	ep := &epoch{}
	t0 := time.Now()
	c, err := startLive(w, stream, o.outDir)
	if err != nil {
		return nil, err
	}
	ep.setupS = c.accepted.Sub(t0).Seconds()
	res.attempted += 2 // the canary and the first front-door job
	stopped := false
	defer func() {
		if !stopped {
			c.stop()
		}
	}()
	c.onLoop(func() {
		cl := c.lc.Master.Sys.Cluster
		ep.totalCores, ep.totalMem = cl.TotalCores(), cl.TotalMem()
	})

	gen := &loadGen{conns: c.conns, next: stream.next}
	gen.start(w.window)
	time.Sleep(o.warmup)
	if traced {
		ep.tr = startTracer(c)
	}
	a, done0 := c.read(), gen.done.Load()
	sleepSeconds(seconds)
	// A rate needs a few finishes. On a box so slow that the phase saw fewer
	// (the race detector, a 1 s smoke epoch), wait for them rather than fail.
	for limit := time.Now().Add(statusFallback); gen.done.Load()-done0 < minPhaseJobs && time.Now().Before(limit); {
		time.Sleep(20 * time.Millisecond)
	}
	b := c.read()
	if traced {
		ep.tr.stop()
	}
	if sat {
		gen.start(satWindow - w.window)
		sleepSeconds(satShare * seconds / 2) // let the deeper window fill
		s0 := c.read()
		sleepSeconds(satShare * seconds)
		s1 := c.read()
		ep.sat = float64(s1.completions-s0.completions) / s1.at.Sub(s0.at).Seconds()
	}
	records := gen.finish()

	m := c.lc.Master
	ep.batches, ep.batched = m.Ingest().BatchStats()
	ep.statusDrops = m.Ingest().StatusDrops()
	ep.commitCount, ep.stateBytes = m.CommitCount(), len(m.StateBytes())
	ep.journalLine = m.Journal.StatsLine()
	ep.fetchRetries, ep.fetchFalls = m.Transport.FetchRetries(), m.Transport.FetchFallbacks()

	stopped = true
	if err := c.stop(); err != nil {
		res.fail(1, "drain: "+err.Error())
	}
	if err := c.checkCanary(); err != nil {
		res.fail(1, err.Error())
	}
	res.attempted += len(records)
	for _, r := range records {
		if r.failed {
			res.fail(1, r.why)
		}
	}
	if ep.statusDrops > 0 {
		res.fail(ep.statusDrops, fmt.Sprintf("%d status frames dropped", ep.statusDrops))
	}

	ep.timed = newPhase(a, b, records)
	if len(ep.timed.jobs) == 0 || ep.timed.monotasks() <= 0 {
		return nil, fmt.Errorf("no job finished in the timed phase")
	}
	if traced {
		// After Run returned the control loop is gone: the scheduler's job
		// table can be read from here without racing it.
		for _, j := range m.Sys.Core.Jobs() {
			if j.State == core.JobFinished && j.Finished >= ep.tr.loopStart && j.Finished < ep.tr.loopEnd {
				ep.coreJobs = append(ep.coreJobs, j)
			}
		}
	}
	return ep, nil
}

// medianOf takes the median of one of the timed phase's rates over epochs.
func medianOf(eps []*epoch, rate func(*phase) float64) float64 {
	v := make([]float64, len(eps))
	for i, ep := range eps {
		v[i] = rate(ep.timed)
	}
	return median(v)
}

// runLive executes one live workload as o.epochs epochs that share the
// run length. A traced run alternates untraced and traced epochs: the
// per-layer numbers come from the traced ones, and the difference between the
// two kinds is the overhead of tracing.
func runLive(w *liveWorkload, o runOpts) (*runResult, error) {
	res := &runResult{values: map[string]float64{}, env: map[string]any{
		"connections": w.conns, "window": w.window, "agents": liveAgents,
		"warmup_s": o.warmup.Seconds(), "epochs": o.epochs,
	}}
	if w.conns > runtime.NumCPU() {
		return nil, fmt.Errorf("refusing %d connections on %d CPUs", w.conns, runtime.NumCPU())
	}
	if w.window > maxWindow {
		return nil, fmt.Errorf("refusing a window of %d (max %d)", w.window, maxWindow)
	}
	stream := newJobStream(w, o.seed)

	var all, plain, traced []*epoch
	var setups []float64
	epochSeconds := o.seconds / float64(o.epochs)
	lastTraced := o.epochs - 1 - o.epochs%2 // the last odd epoch
	for i := 0; i < o.epochs; i++ {
		isTraced := o.trace && i%2 == 1
		ep, err := runEpoch(w, stream, o, epochSeconds, isTraced, isTraced && w.sat && i == lastTraced, res)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", i, err)
		}
		all = append(all, ep)
		setups = append(setups, ep.setupS)
		if isTraced {
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
		runtime.GC() // every epoch starts from a collected heap
	}
	v := res.values
	v["setup_s"] = median(setups)
	measured := plain
	if o.trace {
		measured = traced
	}
	// Rates are the median over epochs; the JCT median is taken over the
	// jobs of all epochs together.
	var jcts []float64
	for _, ep := range measured {
		for _, r := range ep.timed.jobs {
			jcts = append(jcts, ms(r.jct()))
		}
	}
	jobs := len(jcts)
	v["jct_p50_ms"] = median(jcts)
	v["jobs_per_s"] = medianOf(measured, (*phase).jobsPerS)
	v["launches_per_s"] = medianOf(measured, (*phase).launchesPerS)
	res.env["epoch_s"] = epochSeconds
	perEpoch := make([]float64, len(all))
	for i, ep := range all {
		perEpoch[i] = math.Round(ep.timed.jobsPerS()*100) / 100
	}
	res.env["epoch_jobs_per_s"] = perEpoch
	res.env["jobs_timed"] = jobs
	if !o.trace {
		return res, nil
	}

	// Per-layer numbers: everything the traced epochs recorded, pooled.
	var records []jobRecord
	var coreJobs []*core.Job
	var probes tracer
	var a, b counters // summed boundary reads, so that b-a is the pooled delta
	var seconds, sat float64
	statusDrops := 0
	last := traced[len(traced)-1]
	for _, ep := range traced {
		statusDrops += ep.statusDrops
		records = append(records, ep.timed.jobs...)
		coreJobs = append(coreJobs, ep.coreJobs...)
		probes.merge(ep.tr)
		seconds += ep.timed.seconds
		sat = math.Max(sat, ep.sat)
		a.add(ep.timed.a)
		b.add(ep.timed.b)
	}
	n := float64(len(records))
	v["client.samples"] = n
	clientSpans(records, v)
	v["client.sat_launches_per_s"] = sat
	if w.slots > 0 {
		hold := float64(w.holdMs) / 1000
		v["client.slot_util_pct"] = 100 * v["jobs_per_s"] * hold / float64(w.slots)
		v["client.turnaround_ms"] = 1000 * (float64(w.slots)/v["jobs_per_s"] - hold)
	}
	v["remote.ingest_batches"] = float64(last.batches)
	v["remote.ingest_mean_batch"] = ratio(float64(last.batched), float64(last.batches))
	v["remote.status_drops"] = float64(statusDrops)
	v["remote.dispatches"] = float64(b.dispatches - a.dispatches)
	v["remote.completions"] = float64(b.completions - a.completions)
	v["remote.dispatch_rtt_ms"] = last.timed.b.rtt * 1000
	v["remote.commit_count"] = float64(last.commitCount)
	v["cpstate.state_bytes"] = float64(last.stateBytes)
	var jev, japp, jsnap int
	fmt.Sscanf(last.journalLine, "journal: gen=1 events=%d appended=%d replayed=0 (0 B) snaps=%d", &jev, &japp, &jsnap)
	v["journal.events"], v["journal.appends"], v["journal.snapshots"] = float64(jev), float64(japp), float64(jsnap)
	eff := metrics.ComputeEfficiency(last.timed.a.snap, last.timed.b.snap, last.totalCores, last.totalMem)
	v["core.se_cpu_pct"], v["core.ue_cpu_pct"] = eff.SECPU, eff.UECPU
	v["shuffle.mb_per_s"] = (b.wire - a.wire) / 1e6 / seconds
	v["shuffle.wire_mb"] = (b.wire - a.wire) / 1e6
	v["shuffle.raw_mb"] = (b.raw - a.raw) / 1e6
	v["shuffle.served_mb"] = (b.served - a.served) / 1e6
	v["shuffle.fetch_retries"] = float64(last.fetchRetries)
	v["shuffle.fetch_fallbacks"] = float64(last.fetchFalls)
	cpu := (b.cpu - a.cpu).Seconds()
	v["process.cpu_s"] = cpu
	v["process.cpu_us_per_mt"] = 1e6 * cpu / float64(b.completions-a.completions)
	v["process.alloc_mb_per_job"] = float64(b.allocBytes-a.allocBytes) / 1e6 / n
	v["process.allocs_per_job"] = float64(b.mallocs-a.mallocs) / n
	v["process.gc_pause_ms"] = float64(b.gcPauseNs-a.gcPauseNs) / 1e6
	v["process.peak_rss_mb"] = peakRSSMB()
	refRate := medianOf(plain, (*phase).jobsPerS)
	v["trace.overhead_pct"] = 100 * (refRate - v["jobs_per_s"]) / refRate
	res.env["untraced_jobs_per_s"] = refRate

	coreSpans(coreJobs, v)
	probes.metrics(v)
	recon := v["core.admit_wait_p50_ms"] + v["core.critical_path_p50_ms"]
	clientSide := v["client.ack_admitted_p50_ms"] + v["client.admitted_finished_p50_ms"]
	v["trace.core_recon_err_pct"] = 100 * (recon - clientSide) / clientSide

	isoJob(stream.name, stream.params[0], v)
	spanFile := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
	if err := writeSpans(spanFile, traced); err != nil {
		return nil, err
	}
	res.env["span_file"] = spanFile
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clientSpans fills the client.* medians from the benchmark's own stamps
// and checks that the three intervals of every job sum to its JCT exactly.
func clientSpans(jobs []jobRecord, v map[string]float64) {
	n := len(jobs)
	subAck, ackAdm, admFin, jct := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	mismatch := 0
	for i, r := range jobs {
		d1, d2, d3 := r.ack.Sub(r.submit), r.admitted.Sub(r.ack), r.finished.Sub(r.admitted)
		if d1+d2+d3 != r.jct() {
			mismatch++
		}
		subAck[i], ackAdm[i], admFin[i], jct[i] = ms(d1), ms(d2), ms(d3), ms(r.jct())
	}
	tail := tailPercentile(n)
	v["client.submit_ack_p50_ms"] = median(subAck)
	v["client.ack_admitted_p50_ms"] = median(ackAdm)
	v["client.admitted_finished_p50_ms"] = median(admFin)
	v["client.jct_tail_pct"] = tail
	v["client.jct_tail_ms"] = metrics.Percentile(jct, tail)
	v["client.span_sum_mismatches"] = float64(mismatch)
}

// writeSpans stores the traced epochs as a flat span list: name, start and
// end in microseconds since the first traced epoch began, the parent span and
// the job.
func writeSpans(path string, traced []*epoch) error {
	type span struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_us"`
		End    int64  `json:"end_us"`
		Parent string `json:"parent,omitempty"`
		Job    int64  `json:"job,omitempty"`
	}
	var spans []span
	add := func(s span) { spans = append(spans, s) }
	origin := traced[0].tr.wallStart
	us := func(t time.Time) int64 { return t.Sub(origin).Microseconds() }
	for _, ep := range traced {
		for _, r := range ep.timed.jobs {
			add(span{"client.job", us(r.submit), us(r.finished), "", r.id})
			add(span{"client.submit_ack", us(r.submit), us(r.ack), "client.job", r.id})
			add(span{"client.ack_admitted", us(r.ack), us(r.admitted), "client.job", r.id})
			add(span{"client.admitted_finished", us(r.admitted), us(r.finished), "client.job", r.id})
		}
		// The loop clock counts microseconds from its own start; the tracer
		// read it and the wall clock together when the epoch's trace began.
		onWall := func(t eventloop.Time) int64 { return us(ep.tr.wallStart) + int64(t-ep.tr.loopStart) }
		for _, j := range ep.coreJobs {
			id := int64(j.ID)
			add(span{"core.job", onWall(j.Submitted), onWall(j.Finished), "", id})
			add(span{"core.admit_wait", onWall(j.Submitted), onWall(j.Admitted), "core.job", id})
			jm := j.JM()
			for t, placed := range jm.TaskPlacedAt {
				if done, ok := jm.TaskDoneAt[t]; ok {
					add(span{fmt.Sprintf("core.task_run/stage%d", t.Stage.ID), onWall(placed), onWall(done), "core.job", id})
				}
			}
		}
		for _, p := range ep.tr.probes {
			add(span{"remote.ctl_wait", us(p.sent), us(p.sent.Add(p.wait)), "", 0})
		}
	}
	sort.Slice(spans, func(i, k int) bool { return spans[i].Start < spans[k].Start })
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
