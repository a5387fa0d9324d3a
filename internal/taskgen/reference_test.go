package taskgen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceUUniFast is UUniFast as it was before rejected attempts
// stopped early: every attempt allocates and computes a whole vector, and
// a separate pass checks it against cap. The tests below hold the
// production code to it bit for bit, including the generator state each
// call leaves behind.
func referenceUUniFast(g *Generator, n int, total, cap float64) ([]float64, error) {
	if n <= 0 {
		return nil, nil
	}
	if total < 0 {
		return nil, fmt.Errorf("taskgen: negative total utilization %v", total)
	}
	if cap > 0 && total > float64(n)*cap+1e-9 {
		return nil, fmt.Errorf("taskgen: total utilization %v exceeds n·cap = %d·%v", total, n, cap)
	}
	draw := func() []float64 {
		us := make([]float64, n)
		sum := total
		for i := 0; i < n-1; i++ {
			next := sum * math.Pow(g.rng.Float64(), 1/float64(n-1-i))
			us[i] = sum - next
			sum = next
		}
		us[n-1] = sum
		return us
	}
	within := func(us []float64) bool {
		for _, u := range us {
			if u > cap {
				return false
			}
		}
		return true
	}
	var us []float64
	for attempt := 0; attempt < 64; attempt++ {
		us = draw()
		if cap <= 0 || within(us) {
			return us, nil
		}
	}
	// Repair: one headroom-proportional redistribution suffices, since
	// the total excess never exceeds the total headroom (total ≤ n·cap).
	excess, headroom := 0.0, 0.0
	for i, u := range us {
		if u > cap {
			excess += u - cap
			us[i] = cap
		} else {
			headroom += cap - u
		}
	}
	if excess > 0 && headroom > 0 {
		for i, u := range us {
			if u < cap {
				us[i] = u + excess*(cap-u)/headroom
			}
		}
	}
	return us, nil
}

// uunifastMismatch runs UUniFast and referenceUUniFast on generators with
// the same seed and describes the first difference: a value's bits, the
// error, or any of the next 8 draws after the call. It returns "" when
// they agree.
func uunifastMismatch(seed int64, n int, total, cap float64) string {
	g, ref := New(seed), New(seed)
	got, gotErr := g.UUniFast(n, total, cap)
	want, wantErr := referenceUUniFast(ref, n, total, cap)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("%d values (nil %v), reference %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("value %d = %v (%#x), reference %v (%#x)", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for k := 0; k < 8; k++ {
		if a, b := g.rng.Float64(), ref.rng.Float64(); a != b {
			return fmt.Sprintf("draw %d after the call = %v, reference %v", k, a, b)
		}
	}
	return ""
}

// TestUUniFastMatchesReference covers named shapes, including ones where
// all 64 attempts fail and the repair runs, and a seeded sweep of totals
// across [0, n·cap] for every n and cap of interest.
func TestUUniFastMatchesReference(t *testing.T) {
	table := []struct {
		name       string
		seed       int64
		n          int
		total, cap float64
	}{
		// At these two seeds all 64 attempts fail and the repair runs.
		{"repair n=5", 9, 5, 4.6, 1},
		{"repair Fig3 top N=500", 1, 500, 500.0 / 3, 0.9},
		{"Fig3 top N=50", 2, 50, 50.0 / 3, 0.9},
		{"uncapped", 3, 100, 3.5, 0},
		{"negative cap is uncapped", 3, 100, 3.5, -1},
		{"n=1 at cap", 4, 1, 0.9, 0.9},
		{"n=1 just over cap, within slack", 4, 1, 0.9 + 5e-10, 0.9},
		{"zero total", 5, 50, 0, 0.9},
		{"n·cap exactly", 6, 3, 1.5, 0.5},
		{"negative total", 7, 5, -1, 1},
		{"over n·cap", 7, 5, 5.1, 1},
		{"n=0", 8, 0, 1, 1},
		{"n<0", 8, -3, 1, 1},
		{"NaN total", 10, 5, math.NaN(), 1},
	}
	for _, c := range table {
		if d := uunifastMismatch(c.seed, c.n, c.total, c.cap); d != "" {
			t.Errorf("%s: UUniFast(%d, %v, %v) seed %d: %s", c.name, c.n, c.total, c.cap, c.seed, d)
		}
	}

	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 50, 100, 500} {
		for _, cap := range []float64{0, -1, 0.5, 0.9, 1} {
			span := float64(n) * cap
			if cap <= 0 {
				span = float64(n)
			}
			const steps = 8
			for k := 0; k <= steps; k++ {
				total := span * float64(k) / steps
				seed := r.Int63()
				if d := uunifastMismatch(seed, n, total, cap); d != "" {
					t.Errorf("UUniFast(%d, %v, %v) seed %d: %s", n, total, cap, seed, d)
				}
			}
		}
	}
}

// TestUUniFastOneAllocation pins the vector as the only allocation of a
// call, however many attempts it takes; the Figure 3 top step at N=500
// takes up to 64.
func TestUUniFastOneAllocation(t *testing.T) {
	g := New(1)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := g.UUniFast(500, 500.0/3, 0.9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("UUniFast(500, 500/3, 0.9) allocates %v times per call, want 1", allocs)
	}
}

// TestSetCappedAllocations pins SetCapped's allocations to a constant
// independent of the task count: the utilization vector, one slab of
// tasks, the set and one string holding every name.
func TestSetCappedAllocations(t *testing.T) {
	g := New(1)
	per := func(n int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := g.SetCapped("T", n, float64(n)/3, 0.9, fig3PeriodsUS); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := per(50), per(500); small != 4 || large != 4 {
		t.Errorf("SetCapped allocates %v times at n=50 and %v at n=500, want 4 at both", small, large)
	}
}

// BenchmarkSetCapped generates one Figure 3 top-step set at N=500.
func BenchmarkSetCapped(b *testing.B) {
	g := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.SetCapped("T", 500, 500.0/3, 0.9, fig3PeriodsUS); err != nil {
			b.Fatal(err)
		}
	}
}
