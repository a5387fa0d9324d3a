package taskgen

import (
	"math"
	"math/rand"
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

// FuzzRootMatchesPow: for any x in [0, 1] and k ≥ 1, root must return
// math.Pow(x, 1/float64(k)) bit for bit. An x outside [0, 1] is folded
// into it.
func FuzzRootMatchesPow(f *testing.F) {
	f.Add(0.5, uint16(3))
	f.Add(0.0, uint16(1))
	f.Add(math.SmallestNonzeroFloat64, uint16(2))
	f.Add(math.Nextafter(1, 0), uint16(2000))
	f.Fuzz(func(t *testing.T, x float64, k uint16) {
		if x = math.Abs(x); x > 1 {
			x = math.Mod(x, 1)
		}
		if math.IsNaN(x) {
			return
		}
		if d := rootMismatch(x, max(int(k), 1)); d != "" {
			t.Fatal(d)
		}
	})
}

// FuzzSkipFloat64: from any seed and starting draw, skipping k Float64
// draws must leave a Source as k calls of rand.Rand.Float64 on a twin
// source leave it.
func FuzzSkipFloat64(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(334))
	f.Add(int64(-1), uint16(272), uint16(1))
	f.Add(int64(lehmerMod), uint16(333), uint16(607))
	f.Add(int64(math.MinInt64), uint16(700), uint16(10000))
	f.Fuzz(func(t *testing.T, seed int64, before, k uint16) {
		a, b := NewSource(seed), NewSource(seed)
		ra, rb := rand.New(a), rand.New(b)
		for j := 0; j < int(before); j++ {
			ra.Float64()
			rb.Float64()
		}
		a.skipFloat64(int(k))
		for j := 0; j < int(k); j++ {
			rb.Float64()
		}
		if *a != *b {
			t.Fatalf("seed %d, %d draws in: skipping %d differs from %d Float64 calls", seed, before, k, k)
		}
	})
}
