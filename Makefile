# Developer entry points. `make ci` is the gate every change must pass; the
# other targets are its pieces plus `make bench` (microbenchmarks, printed
# and never checked in) and `make loc` (non-test Go lines per package and
# binary, flags per binary; informational, not a gate). End-to-end
# performance is measured by bench/ under the BENCHMARK.json contract, not
# here.

GO ?= go

.PHONY: ci fmt-check vet build test race equiv smoke-dist smoke-failover smoke-elastic smoke-hetero smoke-examples chaos fuzz-wire fuzz-events fuzz-rows fuzz-journal bench bench-e2e loc clean

ci: fmt-check vet build test race equiv smoke-dist smoke-failover smoke-elastic smoke-hetero smoke-examples chaos fuzz-wire fuzz-events fuzz-rows fuzz-journal bench-e2e

# gofmt -l prints offending files; fail when it prints anything.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package fans simulation runs across goroutines, and the
# live runtime (internal/live, eventloop.LiveDriver) crosses real goroutine
# boundaries at the driver inbox; run the whole tree (both equivalence
# suites, the live smoke tests) under the race detector. The scheduling core
# itself is single-threaded.
race:
	$(GO) test -race ./...

# Placement equivalence: the scheduler's placer with its witness pruning must
# place exactly what core.FullRebuildPlacer, which scores every task against
# every worker on every pass, places, tick by tick on the bench fixtures and hand-built pools and
# JCT by JCT on full simulated runs. The live path runs a pass at the end of
# every control-loop batch that changed what is placeable, so its checks ride
# along: CheckingPlacer against the full rebuild on every pass of a live run,
# one pass per batch, each task placed in the batch that made it ready, and
# the SchedInterval tick placing what only time made placeable. (Also covered
# by `race`; kept as an explicit gate so the comparison with the reference
# cannot silently drop out of CI.)
equiv:
	$(GO) test -race -count=1 -run 'Equivalence|TestTick|TestSystem|TestLivePlacementMatchesFullRebuild|TestOnePlacementPassPerBatch|TestEventPass|TestFallbackTick|TestLivePlaces' ./internal/core ./internal/experiments ./internal/live

# Distributed loopback smoke: master + worker agents over real TCP sockets
# in one process — wordcount/SQL row equivalence against direct execution,
# measured-rate feedback, and the kill-an-agent chaos recovery test — plus
# the liveness predicate on the connection row (a silent worker is failable
# exactly HeartbeatMisses intervals after its row was created), the
# submission front door every live benchmark workload enters through, the
# fallback fetch that reads the canonical store at the master's one address
# (its control port), and the one way a run ends — a batch run is a drain
# from the start, so it stops after its last job (at once with none) and
# still answers clients — under the race detector. (Also covered by `race`;
# kept as an explicit gate so the data plane, the fallback path, worker
# liveness, the front door and the stop rule cannot silently drop out of CI.)
smoke-dist:
	$(GO) test -race -count=1 -run 'TestLoopback|TestMeasuredRates|TestAgentFailureRecovery|TestLinkLiveness|TestFrontDoor|TestStatusAsFirstFrame|TestBatchRunWithoutJobsEnds|TestBatchMasterAnswersClients|TestFallbackFetchDialsRegisteredMaster' ./internal/remote

# Failover smoke: kill a journaled primary mid-job, promote the standby off
# the lease, replay snapshot + tail to byte-identical control-plane state,
# re-attach the workers under generation 2, and finish with rows identical
# to direct execution and zero duplicate commits — plus the offline
# replay-determinism suite. Runs under the race detector.
smoke-failover:
	$(GO) test -race -count=1 -run 'TestFailover|TestReplayMatchesLiveState' ./internal/remote

# Elastic smoke, both hosts of the one controller under the race detector:
# a serve-mode loopback cluster scales 2→5 under admission pressure and
# drains back to 2 when the backlog empties, plus the mid-job graceful-drain
# test (zero drain-attributable fetch fallbacks) and the drain+kill chaos
# test — rows byte-identical to direct execution; the controller and
# corrector unit tests; and the simulated diurnal run, which ticks the same
# controller on the virtual clock.
smoke-elastic:
	$(GO) test -race -count=1 -run 'TestElasticAutoscaleLoopback|TestDrainMidJobNoFallbacks|TestElasticDrainAndKillChaos' ./internal/remote
	$(GO) test -race -count=1 ./internal/elastic
	$(GO) test -race -count=1 -run TestDiurnal ./internal/experiments

# Heterogeneous-fleet smoke: a loopback cluster where one agent advertises a
# smaller machine profile and is artificially slowed — the profile must reach
# the master's scheduling core and rows must stay byte-identical to direct
# execution. Runs under the race detector.
smoke-hetero:
	$(GO) test -race -count=1 -run 'TestHeteroLoopback' ./internal/remote

# Examples smoke: quickstart and sql_analytics must print the same bytes on
# the direct local pool and through the live scheduler (-live, live.Runner),
# once the -live run's first two lines (its "mode:" banner and a blank line)
# are dropped. The binaries and outputs live in a temporary directory.
smoke-examples:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for ex in quickstart sql_analytics; do \
		$(GO) build -o "$$dir/$$ex" ./examples/$$ex && \
		"$$dir/$$ex" > "$$dir/direct" && \
		"$$dir/$$ex" -live > "$$dir/live" && \
		tail -n +3 "$$dir/live" | cmp - "$$dir/direct" || \
		{ echo "examples/$$ex: -live output differs from the direct run"; exit 1; }; \
	done; echo "smoke-examples: quickstart and sql_analytics identical with and without -live"

# Hostile-network matrix: the loopback cluster under every injected fault
# class (drop, delay, partition, slow-reader, truncation, wedge) must finish
# both jobs with rows byte-identical to direct execution, with no worker
# failures and under a wall-clock cap — plus the exactly-once degradation
# invariant on a full peer partition. Runs under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'TestChaosMatrix|TestPeerPartition' ./internal/remote

# One-shot fuzz pass over the wire codec's seed corpus (no new inputs).
fuzz-wire:
	$(GO) test -run '^FuzzDecodeFrame$$' ./internal/wire

# One-shot fuzz pass over the control-plane event codec's and snapshot
# decoder's seed corpora. Add -fuzz '^FuzzDecodeEvent$' (or
# '^FuzzDecodeState$') to hunt for new crashers.
fuzz-events:
	$(GO) test -run '^(FuzzDecodeEvent|FuzzDecodeState)$$' ./internal/cpstate

# One-shot fuzz pass over the row blob codec's seed corpus: one encoding of
# every registered row type, every truncation of a multi-run blob, that blob
# under the retired DEFLATE tag and with an overstated raw length. It lives
# in internal/sqlmini, the one package whose tests can name every registered
# type. Add -fuzz '^FuzzDecodeBlob$' to hunt for crashers.
fuzz-rows:
	$(GO) test -run '^FuzzDecodeBlob$$' ./internal/sqlmini

# One-shot fuzz pass over the journal's torn-tail seed corpus: a segment cut,
# or zero-filled to past its end, at an offset inside its header, a length or
# a payload must open, replay the records before the damage and take an
# append. Add -fuzz '^FuzzReplayTail$' to hunt for new cases.
fuzz-journal:
	$(GO) test -run '^FuzzReplayTail$$' ./internal/journal

# Hot-path microbenchmarks with allocation counts.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./internal/core ./internal/dag ./internal/eventloop ./internal/experiments

# The end-to-end harness (bench/, the BENCHMARK.json contract) is a module of
# its own, so none of the targets above builds it: vet it and run its tests
# (unit tests plus a ~15 s smoke run of every workload) so a change to an API
# it calls cannot break it unnoticed.
bench-e2e:
	$(GO) -C bench vet . && $(GO) -C bench test .

# Non-test Go lines per package under internal/ (subpackages included) and
# per binary under cmd/, then their total: the count simplicity changes cite
# (cat | wc -l over every *.go that is not a *_test.go). Then the knobs: flags
# declared per binary (calls of the flag package's declaring functions) and
# their total (the last pass of the loop counts all of cmd/).
loc:
	@for pkg in internal/*/ cmd/*/; do pkg=$${pkg%/}; \
		printf '%-24s %6d\n' $$pkg $$(find $$pkg -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); \
	done; \
	printf '%-24s %6d\n' total $$(find internal cmd -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); \
	decl='flag\.((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?|Var|Func|BoolFunc|TextVar)\('; \
	for bin in cmd/*/ cmd; do bin=$${bin%/}; name=$$bin; [ $$bin = cmd ] && name=total; \
		printf '%-24s %6d\n' "$$name flags" $$(find $$bin -name '*.go' -not -name '*_test.go' | xargs cat | grep -cE "$$decl"); \
	done

clean:
	$(GO) clean ./...
