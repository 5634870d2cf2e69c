package remote

import (
	"reflect"
	"testing"
	"time"

	"ursa/internal/remote/agent"
	"ursa/internal/remote/workload"
)

// TestDataPlaneEquivalence pins the data plane's core invariant: every
// configuration of the zero-copy path — compression negotiated, spilled to
// disk, both at once, or negotiation declined by one side — produces result
// rows identical to direct in-process execution. The blobs those runs move
// are pre-encoded once, pooled through the frame path, optionally deflated,
// and possibly streamed back off disk; none of that may change a single row.
func TestDataPlaneEquivalence(t *testing.T) {
	cases := []struct {
		name string
		// master/agent data-plane knobs under test.
		compressMaster, compressAgent bool
		spill                         bool
		// wantCompressed asserts the negotiated compression actually fired
		// (raw bytes strictly exceed wire bytes); when false the two totals
		// must be exactly equal — the honest-accounting satellite.
		wantCompressed bool
	}{
		{name: "compress", compressMaster: true, compressAgent: true, wantCompressed: true},
		{name: "spill", spill: true},
		{name: "compress+spill", compressMaster: true, compressAgent: true, spill: true, wantCompressed: true},
		// One side declines: negotiation must fall back to raw blobs, and the
		// wire/raw totals must agree to the byte.
		{name: "negotiation-declined", compressMaster: true, compressAgent: false},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Compress: tc.compressMaster}
			acfg := agent.Config{Compress: tc.compressAgent}
			if tc.spill {
				// Budget 1 spills every contribution on both the agents and
				// the master's canonical store; separate dirs keep the two
				// sides' files distinguishable if a test fails.
				cfg.ShuffleMemBudget = 1
				cfg.ShuffleSpillDir = t.TempDir()
				acfg.ShuffleMemBudget = 1
				acfg.ShuffleSpillDir = t.TempDir()
			}

			wcName, wcParams := workload.WordCount(workload.WordCountParams{Lines: 6000, InParts: 6, OutParts: 4})
			sqlName, sqlParams := workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 1500})
			lc := startClusterWith(t, 2, cfg, acfg)
			wcJob, err := lc.Master.Submit(wcName, wcParams)
			if err != nil {
				t.Fatalf("submit wordcount: %v", err)
			}
			sqlJob, err := lc.Master.Submit(sqlName, sqlParams)
			if err != nil {
				t.Fatalf("submit sql: %v", err)
			}
			runCluster(t, lc)

			got, err := wcJob.ResultRows()
			if err != nil {
				t.Fatalf("wordcount result: %v", err)
			}
			if want := directRows(t, wcName, wcParams); !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
				t.Fatalf("%s: wordcount rows diverge from direct execution: got %d want %d rows",
					tc.name, len(got), len(want))
			}
			sqlGot, err := sqlJob.ResultRows()
			if err != nil {
				t.Fatalf("sql result: %v", err)
			}
			if want := directRows(t, sqlName, sqlParams); !reflect.DeepEqual(stringify(sqlGot), stringify(want)) {
				t.Fatalf("%s: sql rows diverge from direct execution:\ngot:  %v\nwant: %v",
					tc.name, stringify(sqlGot), stringify(want))
			}

			tr := lc.Master.Transport
			wireB, rawB := tr.WireBytes(), tr.RawBytes()
			if wireB <= 0 {
				t.Fatalf("%s: no shuffle wire bytes recorded", tc.name)
			}
			if tc.wantCompressed {
				if rawB <= wireB {
					t.Fatalf("%s: compression negotiated but raw bytes (%v) do not exceed wire bytes (%v)",
						tc.name, rawB, wireB)
				}
			} else if rawB != wireB {
				t.Fatalf("%s: compression off but raw bytes (%v) != wire bytes (%v)",
					tc.name, rawB, wireB)
			}
			if n := lc.Master.members().failed; n != 0 {
				t.Fatalf("%s: unexpected worker failures: %d", tc.name, n)
			}
		})
	}
}

// TestDataPlaneEquivalenceUnderFailure is the dead-origin recovery case with
// the full data plane engaged: compression negotiated and every contribution
// spilled, a 3-agent cluster loses one agent mid-job, and recovery — reset
// for retry plus the master's canonical store streaming the dead agent's
// spilled, deflated contributions — must still produce rows identical to
// direct execution.
func TestDataPlaneEquivalenceUnderFailure(t *testing.T) {
	cfg := Config{
		Compress:         true,
		ShuffleMemBudget: 1,
		ShuffleSpillDir:  t.TempDir(),
	}
	acfg := agent.Config{
		Compress:         true,
		ShuffleMemBudget: 1,
		ShuffleSpillDir:  t.TempDir(),
	}
	wcName, wcParams := workload.WordCount(workload.WordCountParams{Lines: 20000, InParts: 12, OutParts: 6})
	sqlName, sqlParams := workload.SQLAnalytics(workload.SQLParams{QueryIndex: 1, SalesRows: 4000})
	lc := startClusterWith(t, 3, cfg, acfg)
	wcJob, err := lc.Master.Submit(wcName, wcParams)
	if err != nil {
		t.Fatalf("submit wordcount: %v", err)
	}
	sqlJob, err := lc.Master.Submit(sqlName, sqlParams)
	if err != nil {
		t.Fatalf("submit sql: %v", err)
	}

	victim := lc.Agents[2]
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if lc.Master.Transport.Worker(victim.ID()).Dispatches > 0 {
				victim.Kill()
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	runCluster(t, lc)

	if got := lc.Master.members().failed; got != 1 {
		t.Fatalf("expected exactly 1 worker failure, got %d", got)
	}
	got, err := wcJob.ResultRows()
	if err != nil {
		t.Fatalf("wordcount result: %v", err)
	}
	if want := directRows(t, wcName, wcParams); !reflect.DeepEqual(sortedStrings(got), sortedStrings(want)) {
		t.Fatalf("wordcount rows diverge after failure recovery: got %d want %d rows", len(got), len(want))
	}
	sqlGot, err := sqlJob.ResultRows()
	if err != nil {
		t.Fatalf("sql result: %v", err)
	}
	if want := directRows(t, sqlName, sqlParams); !reflect.DeepEqual(stringify(sqlGot), stringify(want)) {
		t.Fatalf("sql rows diverge after failure recovery:\ngot:  %v\nwant: %v",
			stringify(sqlGot), stringify(want))
	}
}
