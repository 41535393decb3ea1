package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5.0, 1.5}, 0.625, 3.25, 5.875},
		{[]float64{0.91, 0.97, 1.02, 1.0, 0.95, 1.1, 0.99, 1.05, 0.98, 1.01, 0.93}, 0.95, 0.99, 1.02},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		for i, got := range []float64{q1, q2, q3} {
			want := []float64{c.q1, c.q2, c.q3}[i]
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.data, i, got, want)
			}
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 100}, {10, 10}, {11, 20}, {100, 100}, {0.1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64(nil), 50); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	pairs := func(old, new []float64) [][2]float64 {
		var p [][2]float64
		for i := range old {
			p = append(p, [2]float64{old[i], new[i]})
		}
		return p
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		var out []float64
		for _, v := range steady {
			out = append(out, v*f)
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name  string
		old   []float64
		new   []float64
		lower bool
		want  string
	}{
		{"faster", steady, scaled(0.8), true, verdictImproved},
		{"slower beyond bound", steady, scaled(1.2), true, verdictWorse},
		{"slower within bound", steady, scaled(1.02), true, verdictNoChange},
		{"throughput up", steady, scaled(1.2), false, verdictImproved},
		{"throughput down", steady, scaled(0.8), false, verdictWorse},
		{"noise wider than bound", noisy, scaled(1.01), true, verdictUnresolved},
		{"noisy but every run better", noisy, scaled(0.5), true, verdictImproved},
	}
	for _, c := range cases {
		cmp := comparison{old: c.old, new: c.new, pairs: pairs(c.old, c.new), lowerBetter: c.lower, bound: 0.1}
		if got := cmp.verdict(); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Every new run better than every old one, yet the pairs split: the
	// spread rule must not call it a regression.
	cmp := comparison{old: noisy, new: []float64{59}, lowerBetter: true, bound: 0.1}
	if got := cmp.verdict(); got != verdictNoChange {
		t.Errorf("all-better without pairs: verdict %q, want %q", got, verdictNoChange)
	}
	if got := (comparison{old: steady, new: scaled(0.5), pairs: [][2]float64{{1, 1}, {1, 2}}, lowerBetter: true}).wonShare(); got != 0 {
		t.Errorf("ties and losses: won share %v, want 0", got)
	}
}
