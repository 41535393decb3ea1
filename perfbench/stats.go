package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (the mean of the two middle values
// for an even count), or NaN for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) computes them (the default
// "exclusive" method), so spreads computed here and by a Python check agree.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance of vs as a share of its median.
func spread(vs []float64) float64 {
	q1, _, q3 := quartiles(vs)
	med := median(vs)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted samples: the smallest sample with at least p% of all samples at or
// below it. It returns 0 for no samples.
func percentile[T int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// Verdicts of a two-sided comparison of one (workload, metric) pair.
const (
	verdictImproved   = "improved"
	verdictNoChange   = "no change"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is the evidence for one (workload, metric) pair: each side's
// runs plus the runs paired between them (same workload and seed).
type comparison struct {
	old, new    []float64
	pairs       [][2]float64 // {old, new}
	lowerBetter bool
	bound       float64 // allowed worsening as a share of the old median
}

// wonShare is the share of pairs in which the new run reads better; ties
// count for neither side.
func (c comparison) wonShare() float64 {
	if len(c.pairs) == 0 {
		return math.NaN()
	}
	won := 0
	for _, p := range c.pairs {
		if c.better(p[1], p[0]) {
			won++
		}
	}
	return float64(won) / float64(len(c.pairs))
}

// better reports whether a reads strictly better than b.
func (c comparison) better(a, b float64) bool {
	if c.lowerBetter {
		return a < b
	}
	return a > b
}

// verdict applies the benchmark's acceptance rules:
//   - improved: the new side wins at least nine tenths of the pairs and the
//     medians differ, in its favour, by more than the old side's
//     interquartile distance;
//   - unresolved: either side's spread is wider than the bound, unless every
//     new run reads better than every old run;
//   - worse: the new median is worse than the old one by more than the bound;
//   - no change otherwise.
func (c comparison) verdict() string {
	if len(c.old) == 0 || len(c.new) == 0 {
		return verdictUnresolved
	}
	oldMed, newMed := median(c.old), median(c.new)
	oq1, _, oq3 := quartiles(c.old)
	if c.wonShare() >= 0.9 && c.better(newMed, oldMed) && math.Abs(newMed-oldMed) > math.Abs(oq3-oq1) {
		return verdictImproved
	}
	if spread(c.old) > c.bound || spread(c.new) > c.bound {
		if c.allNewBetter() {
			return verdictNoChange
		}
		return verdictUnresolved
	}
	worse := (newMed - oldMed) / math.Abs(oldMed)
	if !c.lowerBetter {
		worse = -worse
	}
	if worse > c.bound {
		return verdictWorse
	}
	return verdictNoChange
}

func (c comparison) allNewBetter() bool {
	for _, n := range c.new {
		for _, o := range c.old {
			if !c.better(n, o) {
				return false
			}
		}
	}
	return true
}
