// Package ursa_test holds the repository-wide checks that belong to no one
// package.
package ursa_test

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
