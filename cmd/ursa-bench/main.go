// Command ursa-bench regenerates the paper's tables and figures from the
// simulated reproduction. Run with an experiment id (see -list) or "all".
//
// Usage:
//
//	ursa-bench -list
//	ursa-bench table2
//	ursa-bench -scale 0.1 -seed 7 table2 table4
//	ursa-bench -csv out/ fig4 fig9
//	ursa-bench -workers 4 all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"ursa/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale: 1.0 = paper configuration")
	seed := flag.Int64("seed", 1, "workload generation seed")
	csvDir := flag.String("csv", "", "directory to write figure series as CSV")
	workers := flag.Int("workers", 0, "concurrent simulation runs per experiment: 0 = GOMAXPROCS, 1 = serial (results are identical for any value)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "ID\tPAPER\tDESCRIPTION")
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "%s\t%s\t%s\n", e.ID, e.Paper, e.Desc)
		}
		w.Flush()
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ursa-bench [-scale f] [-seed n] [-csv dir] [-workers n] <experiment-id>... | all")
		fmt.Fprintln(os.Stderr, "       ursa-bench -list")
		os.Exit(2)
	}
	// Resolve every id before running the first: a table takes minutes, and
	// a typo in the last id must not cost the ones before it.
	var exps []experiments.Experiment
	if len(args) == 1 && args[0] == "all" {
		exps = experiments.All()
	} else {
		for _, id := range args {
			e, ok := experiments.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "ursa-bench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	opt := experiments.Options{Scale: *scale, Seed: *seed, Workers: *workers}
	for _, e := range exps {
		fmt.Printf("== %s (%s, scale %.2f) ==\n", e.Paper, e.ID, *scale)
		rep := e.Run(opt)
		render(rep)
		if *csvDir != "" {
			if err := writeSeries(*csvDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "ursa-bench: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Println()
	}
}

func render(rep *experiments.Report) {
	fmt.Println(rep.Title)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(rep.Header, "\t"))
	for _, row := range rep.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	for _, n := range rep.Notes {
		fmt.Printf("note: %s\n", n)
	}
}

func writeSeries(dir string, rep *experiments.Report) error {
	if len(rep.Series) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, ts := range rep.Series {
		if ts == nil {
			continue
		}
		safe := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
				return r
			}
			return '_'
		}, name)
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", rep.ID, safe))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := ts.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
