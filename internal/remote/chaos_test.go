package remote

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ursa/internal/faultinject"
	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
	"ursa/internal/wire"
)

// chaosAgentCfg is the agent transport tuning every chaos run uses: the
// fault injector on the shuffle data plane only (the control plane stays
// clean, so injected faults must never read as worker deaths), a tight fetch
// timeout so wedges resolve quickly, and a small-but-real retry/backoff
// budget. Cores is pinned so the scheduler spreads work across agents and
// cross-agent shuffle fetches are guaranteed to happen.
func chaosAgentCfg(inj *faultinject.Injector) agent.Config {
	return agent.Config{
		Cores:           2,
		ShuffleDial:     inj.Dial(wire.NetDial),
		FetchTimeout:    time.Second,
		FetchRetries:    4,
		FetchBackoff:    time.Millisecond,
		FetchBackoffMax: 8 * time.Millisecond,
	}
}

// chaosWallClockCap bounds each chaos run: the point of deadlines, retries
// and fault budgets is that a hostile network slows a job down, it does not
// hang it.
const chaosWallClockCap = 45 * time.Second

// TestChaosMatrix runs a 3-agent loopback cluster under every fault class
// and requires, for each: both jobs (wordcount + one OLAP query) complete
// with rows byte-identical to direct in-process execution, no worker is
// declared dead (the control plane was never faulted), and the run finishes
// under a wall-clock cap.
//
// Fault budgets are chosen so eventual success is guaranteed, not probable:
// with FetchRetries=4 a single fetch survives 5 faulted attempts via the
// master fallback, and MaxFaults=6 means at most one fetch can exhaust its
// peer budget (5 faults) leaving at most one fault for its fallback — which
// has a fresh 5-attempt budget of its own.
func TestChaosMatrix(t *testing.T) {
	wcName, wcParams := workload.WordCount(workload.WordCountParams{Lines: 4000, InParts: 6, OutParts: 4})
	sqlName, sqlParams := workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 1200})

	cases := []struct {
		name      string
		cfg       faultinject.Config
		partition bool // Block every agent shuffle address (master stays reachable)
		retrying  bool // fault class fails fetch attempts → retries must surface
		// spill sets a spill-everything memory budget, so faulted and
		// retried fetches carry blobs streamed off disk.
		spill bool
	}{
		{name: "drop",
			cfg:      faultinject.Config{Seed: 11, Class: faultinject.Drop, Prob: 1, MaxFaults: 6},
			retrying: true},
		{name: "delay",
			cfg: faultinject.Config{Seed: 12, Class: faultinject.Delay, Prob: 1, Delay: 2 * time.Millisecond}},
		{name: "partition",
			cfg:       faultinject.Config{Seed: 13},
			partition: true},
		{name: "slowread",
			cfg: faultinject.Config{Seed: 14, Class: faultinject.SlowRead, Prob: 1,
				TrickleBytes: 2048, TricklePause: 200 * time.Microsecond}},
		{name: "truncate",
			cfg:      faultinject.Config{Seed: 15, Class: faultinject.Truncate, Prob: 1, MaxFaults: 6, CutAfterBytes: 7},
			retrying: true},
		{name: "wedge",
			cfg:      faultinject.Config{Seed: 16, Class: faultinject.Wedge, Prob: 1, MaxFaults: 6},
			retrying: true},
		// The drop class again, but with every contribution spilled: retried
		// fetches must re-stream identical bytes from disk, and a mid-stream
		// drop must never leave a torn frame visible as corrupt rows.
		{name: "drop-spill",
			cfg:      faultinject.Config{Seed: 17, Class: faultinject.Drop, Prob: 1, MaxFaults: 6},
			retrying: true,
			spill:    true},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultinject.New(tc.cfg)
			cfg := Config{}
			acfg := chaosAgentCfg(inj)
			if tc.spill {
				cfg.ShuffleMemBudget = 1
				cfg.ShuffleSpillDir = t.TempDir()
				acfg.ShuffleMemBudget = 1
				acfg.ShuffleSpillDir = t.TempDir()
			}
			lc := startClusterWith(t, 3, cfg, acfg)
			wcJob, err := lc.Master.Submit(wcName, wcParams)
			if err != nil {
				t.Fatalf("submit wordcount: %v", err)
			}
			sqlJob, err := lc.Master.Submit(sqlName, sqlParams)
			if err != nil {
				t.Fatalf("submit sql: %v", err)
			}
			if tc.partition {
				// Sever every agent↔agent shuffle path; the master's canonical
				// store stays reachable — the §4.3 fallback must carry the job.
				addrs := make([]string, len(lc.Agents))
				for i, a := range lc.Agents {
					addrs[i] = a.ShuffleAddr()
				}
				inj.Block(addrs...)
			}

			start := time.Now()
			runCluster(t, lc)
			if elapsed := time.Since(start); elapsed > chaosWallClockCap {
				t.Fatalf("%s: run took %v, cap is %v", tc.name, elapsed, chaosWallClockCap)
			}

			got, err := wcJob.ResultRows()
			if err != nil {
				t.Fatalf("wordcount result: %v", err)
			}
			if want := directRows(t, wcName, wcParams); !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
				t.Fatalf("wordcount rows diverge under %s: got %d want %d rows",
					tc.name, len(got), len(want))
			}
			sqlGot, err := sqlJob.ResultRows()
			if err != nil {
				t.Fatalf("sql result: %v", err)
			}
			if want := directRows(t, sqlName, sqlParams); !reflect.DeepEqual(stringify(sqlGot), stringify(want)) {
				t.Fatalf("sql rows diverge under %s:\ngot:  %v\nwant: %v",
					tc.name, stringify(sqlGot), stringify(want))
			}

			tr := lc.Master.Transport
			if n := lc.Master.members().failed; n != 0 {
				t.Fatalf("%s: data-plane faults escalated to %d worker failures", tc.name, n)
			}
			if tc.cfg.Class != faultinject.None && inj.FaultsInjected() == 0 {
				t.Fatalf("%s: the fault schedule never fired — the test exercised nothing", tc.name)
			}
			if tc.retrying && tr.FetchRetries() == 0 {
				t.Fatalf("%s: faulted fetches completed with zero recorded retries", tc.name)
			}
			if tc.partition {
				if tr.FetchFallbacks() == 0 {
					t.Fatalf("partition: no fetch degraded to the master store")
				}
				line := tr.StatsLine(time.Now())
				if !strings.Contains(line, fmt.Sprintf("fallback=%d", tr.FetchFallbacks())) {
					t.Fatalf("partition degradation not visible in StatsLine: %q", line)
				}
			}
		})
	}
}

// TestPeerPartitionFallsBackExactlyOnce pins the degradation discipline on a
// full peer partition: every cross-agent fetch exhausts exactly FetchRetries
// retries against its blocked peer, then falls back to the master's
// canonical store exactly once (the fallback itself is clean and retry-free)
// — so cluster-wide, retries == FetchRetries × fallbacks holds exactly, and
// the degradation is visible in the master's transport stats line.
func TestPeerPartitionFallsBackExactlyOnce(t *testing.T) {
	inj := faultinject.New(faultinject.Config{Seed: 21})
	acfg := chaosAgentCfg(inj)
	acfg.FetchRetries = 2
	lc := startClusterWith(t, 2, Config{}, acfg)
	name, params := workload.WordCount(workload.WordCountParams{Lines: 3000, InParts: 6, OutParts: 4})
	job, err := lc.Master.Submit(name, params)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	inj.Block(lc.Agents[0].ShuffleAddr(), lc.Agents[1].ShuffleAddr())

	runCluster(t, lc)

	got, err := job.ResultRows()
	if err != nil {
		t.Fatalf("result rows: %v", err)
	}
	if want := directRows(t, name, params); !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
		t.Fatalf("rows diverge under full peer partition: got %d want %d rows", len(got), len(want))
	}

	tr := lc.Master.Transport
	if n := lc.Master.members().failed; n != 0 {
		t.Fatalf("partitioned data plane escalated to %d worker failures", n)
	}
	fallbacks := tr.FetchFallbacks()
	if fallbacks == 0 {
		t.Fatal("expected at least one cross-agent fetch to degrade to the master store")
	}
	if got := tr.FetchRetries(); got != acfg.FetchRetries*fallbacks {
		t.Fatalf("retries = %d, want exactly %d (%d retries per degraded fetch × %d fallbacks)",
			got, acfg.FetchRetries*fallbacks, acfg.FetchRetries, fallbacks)
	}
	line := tr.StatsLine(time.Now())
	if !strings.Contains(line, fmt.Sprintf("retry=%d fallback=%d", tr.FetchRetries(), fallbacks)) {
		t.Fatalf("degradation not visible in StatsLine: %q", line)
	}
}
