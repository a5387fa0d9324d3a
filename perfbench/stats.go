package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartiles of xs by the
// same "exclusive" interpolation as Python's statistics.quantiles(xs, n=4),
// so spreads computed here match the ones the acceptance check computes.
// A single sample is its own quartiles; an empty one gives NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// iqrShare returns the interquartile range of xs as a share of its median.
func iqrShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// tailPercentiles are the candidate percentiles tailPercentile reports,
// in increasing order.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least ten samples beyond it, with the nearest-rank value at that
// percentile. ok is false when fewer than twenty samples leave no
// percentile at or above the median with ten samples beyond it.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	s := sorted(xs)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // nearest rank, 1-based
		if rank < 1 || n-rank < 10 {
			break
		}
		pct, value, ok = p, s[rank-1], true
	}
	return pct, value, ok
}

// pairVerdict is the outcome of the paired comparison rule: a change may
// claim a gain only when it wins at least nine tenths of the alternating
// pairs (ties count for neither side) and its median differs from the
// parent's by more than the parent's own interquartile range.
type pairVerdict struct {
	Pairs, Wins int
	// Gap is the change's median minus the parent's, in the metric's unit.
	Gap float64
	// ParentIQR is the distance between the parent's quartiles.
	ParentIQR float64
	Gain      bool
}

// comparePairs applies the pair rule to runs made in alternating pairs:
// parent[i] and change[i] are the i-th pair. higherBetter says which
// direction of the metric is a win. Extra unpaired runs are ignored.
func comparePairs(parent, change []float64, higherBetter bool) pairVerdict {
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	v := pairVerdict{Pairs: n}
	if n == 0 {
		return v
	}
	for i := 0; i < n; i++ {
		d := change[i] - parent[i]
		if !higherBetter {
			d = -d
		}
		if d > 0 {
			v.Wins++
		}
	}
	p1, _, p3 := quartiles(parent[:n])
	v.ParentIQR = p3 - p1
	v.Gap = median(change[:n]) - median(parent[:n])
	gap := v.Gap
	if !higherBetter {
		gap = -gap
	}
	v.Gain = 10*v.Wins >= 9*n && gap > v.ParentIQR
	return v
}
