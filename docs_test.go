// Package ursa_test holds the repository-wide checks that belong to no one
// package.
package ursa_test

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// deletedNames are names of code that is gone, each with what took its place.
// A doc, build file or Go file that still says one describes a repository that
// no longer exists.
var deletedNames = []struct{ pattern, instead string }{
	{`ursa-live`, "the in-process scheduler runs as examples/quickstart -live"},
	{`URSA_BENCH_SCALE`, "the paper tables run as ursa-bench -scale"},
	{`CandidateWorkers`, "placement has one scan"},
	{`AdmissionInterval`, "the control loop's batch is the admission batch"},
	{`SetBlobCache`, "contributions are encoded once"},
	{`metrics\.Elastic\b`, "the elastic stats line reads the owners"},
	{`internal/perf\b`, "end-to-end numbers come from bench/"},
	{`BENCH_core`, "end-to-end numbers come from bench/"},
	{`naive-admission`, "admission has one path"},
	{`NaiveAdmission`, "admission has one path"},
	{`SubmitBatch`, "live.System.Submit takes every job"},
	{`\bSubmitPlan\b`, "live.System.Submit takes every job"},
	{`shuffle-compress`, "every blob is rowcodec bytes tagged BlobRaw"},
	{`BlobDeflate`, "every blob is rowcodec bytes tagged BlobRaw"},
	{`compress/flate`, "every blob is rowcodec bytes tagged BlobRaw"},
	{`\bCompress:|\.Compress\b`, "every blob is rowcodec bytes tagged BlobRaw"},
	{`TenantIntakeCap`, "the global intake bound is the only one"},
	{`tenant-intake-cap`, "the global intake bound is the only one"},
	{`drain-on-signal`, "a worker's first SIGINT/SIGTERM always requests the drain"},
	{`(^|[^\w-])-elastic([^\w-]|$)`, "every master takes joins"},
	{`\bElastic:|\.Elastic\b`, "every master takes joins"},
	{`(^|[^\w-])-drain([^\w-]|$)`, "drain a worker with SIGINT or Master.DrainWorker"},
	{`flag\.\w+\("(elastic|drain)"`, "every master takes joins; drain a worker with SIGINT or Master.DrainWorker"},
	{`markDirty`, "placement reads every worker on every pass"},
	{`snapshotStaleAt`, "placement reads every worker on every pass"},
	{`OnActivity`, "placement reads every worker on every pass"},
	{`staleNever`, "placement reads every worker on every pass"},
	{`snapValid`, "placement reads every worker on every pass"},
	{`shortPending`, "every job's ready tasks are placed by the event pass"},
	{`jobInputBytes`, "planWorkHint sums the plan's input itself"},
	{`ProvisionerFunc`, "remote.Config.Provisioner is a func() error"},
	{`ProcessProvisioner`, "ursa-master's spawnWorker is the -autoscale provisioner"},
	{`\bAutoscale:|\.Autoscale\b`, "a non-nil remote.Config.Provisioner runs the autoscaler"},
	{`TenantReserved`, "the scheduler owns reservations; core.CheckQuiesced checks them"},
	{`LastSeq`, "dispatch sequence numbers are the executor's"},
	{`State\.InFlight|\.InFlight\b`, "in-flight work is remoteExecutor.dispatches alone"},
	{`InterferencePenalty`, "placement has one score, Algorithm 1's F(t,w)"},
	{`interference-penalty`, "placement has one score, Algorithm 1's F(t,w)"},
	{`computePenalty`, "placement has one score, Algorithm 1's F(t,w)"},
	{`HeteroPlacementComparison`, "Table1Hetero runs the contended fleet and the uncontended reference"},
	{`\.Deviation\(`, "Worker.Rate against Worker.NominalRate reads how far a worker runs from its profile"},
	{`MasterShuffleAddr`, "the canonical store answers on the master's control port, the address the agent registered with"},
	{`execMapping`, "lop.extMapping returns dag.MapKind"},
}

// docBudget is the most bytes README.md and DESIGN.md may hold together: the
// docs that describe the repository as it is must not grow, so new text
// retires old. EXPERIMENTS.md, CHANGES.md and ROADMAP.md are logs and are not
// budgeted.
const docBudget = 122283

// TestDocBudget fails when README.md and DESIGN.md together exceed
// docBudget, naming each file's size.
func TestDocBudget(t *testing.T) {
	total := int64(0)
	var sizes []string
	for _, path := range []string{"README.md", "DESIGN.md"} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
		sizes = append(sizes, fmt.Sprintf("%s=%d", path, info.Size()))
	}
	if total > docBudget {
		t.Errorf("README.md and DESIGN.md hold %d bytes, budget %d (%s)", total, docBudget, strings.Join(sizes, " "))
	}
}

// TestDeletedNamesStayDeleted scans the docs that describe the repository as
// it is (README, DESIGN, the verify skill), the build files and every Go file
// for deletedNames. The history files (CHANGES, EXPERIMENTS, ROADMAP) record
// what was deleted and are not scanned; neither is bench/, a module of its
// own, nor this file.
func TestDeletedNamesStayDeleted(t *testing.T) {
	files := []string{"README.md", "DESIGN.md", "Makefile", ".gitignore",
		filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	workflows, err := filepath.Glob(filepath.Join(".github", "workflows", "*"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, workflows...)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go") && path != "docs_test.go":
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	res := make([]*regexp.Regexp, len(deletedNames))
	for i, n := range deletedNames {
		res[i] = regexp.MustCompile(n.pattern)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for i, re := range res {
				if m := re.FindString(sc.Text()); m != "" {
					t.Errorf("%s:%d: %s (deleted: %s)", path, line, m, deletedNames[i].instead)
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		f.Close()
	}
}

// flagBudget is the most flags the binaries under cmd/ may declare together:
// the count must not go up, so a new flag retires an old one.
const flagBudget = 63

// flagDecl is `make loc`'s pattern for a flag declaration: a call of one of
// the flag package's declaring functions.
var flagDecl = regexp.MustCompile(`flag\.((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?|Var|Func|BoolFunc|TextVar)\(`)

// TestFlagBudget counts flag declarations as `make loc` does — lines of the
// non-test Go files under cmd/ that match flagDecl — and fails when the total
// exceeds flagBudget, naming each binary's count.
func TestFlagBudget(t *testing.T) {
	perBin := map[string]int{}
	total := 0
	err := filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		bin := strings.Split(filepath.ToSlash(path), "/")[1]
		for _, line := range strings.Split(string(src), "\n") {
			if flagDecl.MatchString(line) {
				perBin[bin]++
				total++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var counts []string
	for bin, n := range perBin {
		counts = append(counts, fmt.Sprintf("%s=%d", bin, n))
	}
	sort.Strings(counts)
	if total > flagBudget {
		t.Errorf("cmd/ declares %d flags, budget %d (%s)", total, flagBudget, strings.Join(counts, " "))
	}
}
