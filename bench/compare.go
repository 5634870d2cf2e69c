package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads an --out file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// samples gathers one metric's values over a workload's untraced runs.
func samples(recs []record, workload, metric string) []float64 {
	var v []float64
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			if x, ok := r.Metrics[metric]; ok {
				v = append(v, x)
			}
		}
	}
	return v
}

// compareFiles prints one row per (workload, end-to-end metric): the base
// and candidate medians, how much worse the candidate is as a share of the
// base, the wider of the two run-to-run spreads, the metric's bound, and the
// verdict. It fails when any row is worse or unresolved.
func compareFiles(w io.Writer, spec *benchSpec, basePath, candPath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	cand, err := readRecords(candPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-16s %5s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "runs", "base median", "cand median", "worse by", "spread", "bound", "verdict")
	bad := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, c := samples(base, wl.Name, m.Name), samples(cand, wl.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			verdict, worse, spread := judge(b, c, m.Bound, m.higherIsBetter(), m.Name != "setup_s")
			if verdict != verdictOK {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-16s %2d/%-2d %14.4f %14.4f %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				wl.Name, m.Name, len(b), len(c), median(b), median(c), 100*worse, 100*spread, 100*m.Bound, verdict)
		}
	}
	for _, set := range [][]record{base, cand} {
		for _, r := range set {
			if r.Failed > 0 {
				bad++
				fmt.Fprintf(w, "%s seed %v: %d of %d operations failed\n", r.Workload, r.Env["seed"], r.Failed, r.Attempted)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse, unresolved or failed", bad)
	}
	return nil
}
