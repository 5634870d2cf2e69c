package main

import (
	"math"
	"sort"

	"ursa/internal/metrics"
)

// median is Python's statistics.median: the mean of the two middle values
// when the count is even; 0 when empty.
func median(v []float64) float64 { return metrics.Percentile(v, 50) }

// tailCandidates are the percentiles tailPercentile picks from, highest
// first, each with the share of samples beyond it in parts per 10000 (an
// integer, so that 10000 samples qualify for p99.9 exactly).
var tailCandidates = []struct {
	p      float64
	beyond int
}{{99.99, 1}, {99.9, 10}, {99, 100}, {95, 500}, {90, 1000}, {75, 2500}}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it, so the reported tail is never one outlier. With fewer
// than 40 samples no candidate qualifies and the median is returned.
func tailPercentile(n int) float64 {
	for _, c := range tailCandidates {
		if n*c.beyond >= 10*10000 {
			return c.p
		}
	}
	return 50
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so the spread the
// compare mode prints is the spread the acceptance rule uses. It needs at
// least two values; with fewer both quartiles are the single value (or 0).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(k int) float64 {
		// Python: j = k*(n+1) // 4, clamped to [1, n-1]; delta = k*(n+1) - 4j.
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(med)
}

// worseBy is how much cand is worse than base as a share of base: positive
// means worse in the metric's direction, negative means better.
func worseBy(base, cand float64, higherIsBetter bool) float64 {
	if base == 0 {
		return 0
	}
	d := (cand - base) / math.Abs(base)
	if higherIsBetter {
		return -d
	}
	return d
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound: the candidate's median may be worse than
// the base's by at most bound; when either side's own run-to-run spread is
// wider than the bound the pair cannot be told apart and is unresolved.
// checkSpread is false for setup_s, which the acceptance rule judges on its
// medians alone.
func judge(base, cand []float64, bound float64, higherIsBetter, checkSpread bool) (verdict string, worse, spread float64) {
	spread = math.Max(spreadShare(base), spreadShare(cand))
	worse = worseBy(median(base), median(cand), higherIsBetter)
	switch {
	case checkSpread && spread > bound:
		return verdictUnresolved, worse, spread
	case worse > bound:
		return verdictWorse, worse, spread
	}
	return verdictOK, worse, spread
}
