// Package stats provides the summary statistics the paper reports with its
// experimental results: sample means, standard deviations, and 99%
// confidence intervals with relative errors (every figure caption in the
// paper quotes the 99% CI relative error of its point samples).
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// AddInt appends an integer observation.
func (s *Sample) AddInt(x int64) { s.Add(float64(x)) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation (n−1 in the denominator).
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// z99 is the two-sided 99% normal critical value. The paper's samples are
// means of 1000 task sets, so the normal approximation is appropriate.
const z99 = 2.5758293035489004

// CI99 returns the half-width of the 99% confidence interval of the mean.
func (s *Sample) CI99() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return z99 * s.StdDev() / math.Sqrt(float64(n))
}

// RelErr99 returns the 99% CI half-width as a fraction of the mean — the
// "relative error" the paper's figure captions quote (e.g. "less than 1.2%
// of the reported value"). It returns 0 when the mean is 0.
func (s *Sample) RelErr99() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return math.Abs(s.CI99() / m)
}

// String renders "mean ± ci99 (n=…)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.CI99(), s.N())
}
