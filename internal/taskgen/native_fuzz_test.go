package taskgen

import (
	"math"
	"testing"
)

// FuzzUUniFast: for arbitrary parameters UUniFast must either return an
// error or a vector that sums exactly to the target with every component
// within the cap — never panic, never silently violate the contract — and
// must agree with referenceUUniFast bit for bit, in its values, its error
// and the generator state it leaves behind.
func FuzzUUniFast(f *testing.F) {
	f.Add(int64(1), 5, 2.0, 0.9)
	f.Add(int64(7), 1, 0.5, 0.0)
	f.Add(int64(3), 100, 99.9, 1.0)
	f.Add(int64(9), 5, 4.6, 1.0)
	f.Add(int64(1), 500, 500.0/3, 0.9)
	f.Fuzz(func(t *testing.T, seed int64, n int, total, cap float64) {
		if n > 10000 {
			return
		}
		if d := uunifastMismatch(seed, n, total, cap); d != "" {
			t.Fatalf("UUniFast(%d, %v, %v) seed %d: %s", n, total, cap, seed, d)
		}
		if math.IsNaN(total) || math.IsInf(total, 0) || math.IsNaN(cap) || math.IsInf(cap, 0) {
			return
		}
		if total > 1e12 || cap > 1e12 || total < -1e12 || cap < -1e12 {
			return // float error bounds below are meaningless at that scale
		}
		us, err := New(seed).UUniFast(n, total, cap)
		if err != nil {
			return
		}
		if n <= 0 {
			if us != nil {
				t.Fatalf("UUniFast(%d) = %v, want nil", n, us)
			}
			return
		}
		if len(us) != n {
			t.Fatalf("got %d utilizations, want %d", len(us), n)
		}
		sum := 0.0
		for _, u := range us {
			sum += u
			if cap > 0 && u > cap+1e-6 {
				t.Errorf("utilization %v exceeds cap %v", u, cap)
			}
		}
		if diff := math.Abs(sum - total); diff > 1e-6*math.Max(1, math.Abs(total)) {
			t.Errorf("sum %v differs from total %v", sum, total)
		}
	})
}

// FuzzSourceMatchesMathRand: for any seed, a Source seeded in O(1) must
// draw what rand.NewSource(seed) draws, for as many draws as asked, and
// so must the same Source reseeded after those draws.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(1500))
	f.Add(int64(-1), uint16(334))
	f.Add(int64(lehmerMod), uint16(273))
	f.Add(int64(math.MinInt64), uint16(607))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		s := NewSource(seed)
		if j, ok := sourceMismatch(s, seed, int(draws)); !ok {
			t.Fatalf("seed %d: draw %d differs from rand.NewSource", seed, j)
		}
		s.Seed(^seed)
		if j, ok := sourceMismatch(s, ^seed, sourceDraws); !ok {
			t.Fatalf("reseeded to %d after %d draws: draw %d differs from rand.NewSource", ^seed, draws, j)
		}
	})
}
