// Command ursa-worker runs one Ursa worker agent: it joins a master's
// cluster, rebuilds job plans from the workload registry, executes
// dispatched monotasks, serves its shuffle partitions to peers, and reports
// measured completions. Start one per machine (or several on one machine
// for a local cluster).
//
// Usage:
//
//	ursa-worker -master 127.0.0.1:7400
//	ursa-worker -master 10.0.0.1:7400 -shuffle-listen 10.0.0.2:0 -cores 4
//
// The first SIGINT/SIGTERM asks the master for a graceful drain: dispatch
// here stops, in-flight work commits, fetch routing moves to the master's
// canonical store, and the worker exits 0 on the master's DrainDone. With the
// control link down, or at a second signal, the worker stops at once instead
// and the master fails it over (§4.3).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ursa/internal/remote/agent"
)

func main() {
	var (
		master  = flag.String("master", "127.0.0.1:7400", "master control-plane address(es), comma-separated: primary first, then standbys")
		shuffle = flag.String("shuffle-listen", "127.0.0.1:0", "shuffle listen address peers dial")
		cores   = flag.Int("cores", 0, "local execution parallelism (0 = GOMAXPROCS)")
		quiet   = flag.Bool("quiet", false, "suppress agent logs")

		// Machine-profile advertisement (see DESIGN.md §15): non-zero values
		// are carried in Register and re-declare this worker's machine in the
		// master's scheduling core, so a mixed fleet is modeled per-machine.
		// Units are scheduler accounting units (rows, rows/sec for the live
		// runtime), matching the master's cluster config.
		memAdv      = flag.Float64("mem", 0, "advertise memory capacity to the master (0 = master's uniform default)")
		coreRateAdv = flag.Float64("core-rate", 0, "advertise per-core execution rate (0 = master's uniform default)")
		netAdv      = flag.Float64("net-bandwidth", 0, "advertise network bandwidth (0 = master's uniform default)")
		diskAdv     = flag.Float64("disk-bandwidth", 0, "advertise disk bandwidth (0 = master's uniform default)")

		// Data-plane knobs (see DESIGN.md §11).
		memBudget = flag.Int64("shuffle-mem-budget", 0,
			"max in-memory bytes per job's contribution store before spilling to disk (0 = never spill)")
		spillDir = flag.String("shuffle-spill-dir", "",
			"directory for contribution spill files (empty = system temp dir)")
	)
	flag.Parse()

	// Multiple comma-separated addresses arm the failover path: on a lost
	// master connection the agent re-registers round-robin across the list
	// and re-attaches to whichever master holds the lease.
	addrs := strings.Split(*master, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	cfg := agent.Config{
		MasterAddrs: addrs, ShuffleAddr: *shuffle, Cores: *cores,
		MemBytes: *memAdv, CoreRate: *coreRateAdv,
		NetBandwidth: *netAdv, DiskBandwidth: *diskAdv,
		ShuffleMemBudget: *memBudget,
		ShuffleSpillDir:  *spillDir,
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	a, err := agent.Dial(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ursa-worker: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("ursa-worker: worker %d joined %s (shuffle %s)\n", a.ID(), *master, a.ShuffleAddr())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- a.Wait() }()
	select {
	case <-sig:
		if a.RequestDrain("signal") {
			// Graceful master-side drain: the master stops dispatching here,
			// waits for in-flight monotasks to commit, migrates fetch routing
			// to its canonical store, and answers DrainDone — the agent then
			// exits cleanly through the done channel. No §4.3 failure
			// recovery, no fetch fallbacks.
			fmt.Fprintln(os.Stderr, "ursa-worker: signal received, requesting graceful drain (^C again to force)")
			select {
			case err := <-done:
				if err != nil {
					fmt.Fprintf(os.Stderr, "ursa-worker: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("ursa-worker: worker %d drained by master, exiting\n", a.ID())
			case <-sig:
				a.Stop()
				<-done
				fmt.Printf("ursa-worker: worker %d force-drained, exiting\n", a.ID())
			}
			return
		}
		fmt.Fprintln(os.Stderr, "ursa-worker: signal received, master unreachable, stopping")
		a.Stop()
		<-done
		fmt.Printf("ursa-worker: worker %d drained, exiting\n", a.ID())
	case err := <-done:
		if err != nil {
			fmt.Fprintf(os.Stderr, "ursa-worker: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ursa-worker: worker %d shut down cleanly\n", a.ID())
	}
}
