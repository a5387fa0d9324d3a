package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

// TestQuartilesMatchPython pins values from Python's
// statistics.quantiles(xs, n=4), whose exclusive method the acceptance
// check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{16, 8, 4, 2, 1}, 1.5, 4, 12},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := iqrShare([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 5.5/5.5) {
		t.Errorf("iqrShare = %v, want 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, c := range []struct {
		n          int
		pct, value float64
		ok         bool
	}{
		{19, 0, 0, false}, // the median leaves only 9 beyond it
		{20, 50, 10, true},
		{40, 75, 30, true},
		{100, 90, 90, true},
		{1000, 99, 990, true},
		{20000, 99.9, 19980, true},
	} {
		pct, v, ok := tailPercentile(ramp(c.n))
		if ok != c.ok || pct != c.pct || (ok && !near(v, c.value)) {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", c.n, pct, v, ok, c.pct, c.value, c.ok)
		}
	}
}

func TestComparePairs(t *testing.T) {
	parent := []float64{100, 102, 98, 101, 99, 100, 103, 97, 100, 101}
	faster := make([]float64, len(parent))
	for i, p := range parent {
		faster[i] = p * 1.2
	}
	if v := comparePairs(parent, faster, true); !v.Gain || v.Wins != 10 || v.Pairs != 10 {
		t.Errorf("20%% faster on every pair: %+v, want a gain with 10/10 wins", v)
	}
	// The same numbers are a loss when lower is better.
	if v := comparePairs(parent, faster, false); v.Gain || v.Wins != 0 {
		t.Errorf("lower-is-better: %+v, want no gain and no wins", v)
	}

	// Winning 8 of 10 pairs is not enough, however large the gap.
	mostly := append([]float64(nil), faster...)
	mostly[0], mostly[1] = parent[0]-1, parent[1]-1
	if v := comparePairs(parent, mostly, true); v.Gain || v.Wins != 8 {
		t.Errorf("8/10 wins: %+v, want no gain", v)
	}

	// Winning every pair by less than the parent's spread is not a gain.
	nudged := make([]float64, len(parent))
	for i, p := range parent {
		nudged[i] = p + 0.5
	}
	v := comparePairs(parent, nudged, true)
	if v.Gain || v.Wins != 10 || v.Gap > v.ParentIQR {
		t.Errorf("gap inside the parent's IQR: %+v, want no gain", v)
	}

	// Ties count for neither side.
	if v := comparePairs(parent, parent, true); v.Wins != 0 || v.Gain {
		t.Errorf("identical runs: %+v, want no wins", v)
	}
}
