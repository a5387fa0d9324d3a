package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMeanStdDev(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample stddev with n−1: variance = 32/7.
	want := math.Sqrt(32.0 / 7.0)
	if got := s.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
}

func TestEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.CI99() != 0 || s.RelErr99() != 0 {
		t.Error("empty sample should report zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.StdDev() != 0 || s.CI99() != 0 {
		t.Error("single observation should have zero spread")
	}
}

// TestCI99Coverage: the 99% CI of the mean of normal draws covers the true
// mean in roughly 99% of repetitions.
func TestCI99Coverage(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const reps = 400
	covered := 0
	for rep := 0; rep < reps; rep++ {
		var s Sample
		for i := 0; i < 200; i++ {
			s.Add(10 + 3*r.NormFloat64())
		}
		lo, hi := s.Mean()-s.CI99(), s.Mean()+s.CI99()
		if lo <= 10 && 10 <= hi {
			covered++
		}
	}
	frac := float64(covered) / reps
	if frac < 0.96 {
		t.Errorf("99%% CI covered the mean in only %.1f%% of repetitions", 100*frac)
	}
}

func TestRelErr99(t *testing.T) {
	var s Sample
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		s.Add(100 + r.NormFloat64())
	}
	// σ≈1, n=1000 → CI ≈ 2.58/√1000 ≈ 0.081 → rel err ≈ 0.08%.
	if re := s.RelErr99(); re > 0.002 {
		t.Errorf("RelErr99 = %v, want < 0.2%%", re)
	}
}

func TestString(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Add(3)
	if got := s.String(); got == "" {
		t.Error("empty String")
	}
}

// TestQuickMeanWithinRange: the mean lies in [min, max].
func TestQuickMeanWithinRange(t *testing.T) {
	f := func(xs []float64) bool {
		var s Sample
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				// Magnitudes near MaxFloat64 overflow the plain
				// accumulation; the package targets experiment-scale
				// values.
				return true
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		lo, hi := slices.Min(xs), slices.Max(xs)
		return m >= lo-1e-9*math.Abs(lo)-1e-9 && m <= hi+1e-9*math.Abs(hi)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
