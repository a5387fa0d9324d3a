package taskgen

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sourceDraws is past rngLen, so every comparison also covers the
// register's wrap-around, where each draw reads words written by
// earlier draws rather than seeded ones.
const sourceDraws = 1500

// oracleSeeds returns the seeds the oracle tests compare at: the edges
// of math/rand's seed reduction, then SubSeed-mixed seeds spread over
// the whole int64 range.
func oracleSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, lehmerMod, -lehmerMod, 2 * lehmerMod, -2 * lehmerMod,
		lehmerMod - 1, -(lehmerMod - 1), lehmerMod + 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, seedZero, -seedZero,
	}
	for i := int64(0); len(seeds) < n; i++ {
		seeds = append(seeds, SubSeed(7, i))
	}
	return seeds
}

// sourceMismatch draws n raw values from a and from math/rand's source
// for seed, alternating Uint64 and Int63. It returns the index of the
// first draw that differs and false, or 0 and true.
func sourceMismatch(a *Source, seed int64, n int) (int, bool) {
	ref := rand.NewSource(seed).(rand.Source64)
	for j := 0; j < n; j++ {
		if j%2 == 0 {
			if a.Uint64() != ref.Uint64() {
				return j, false
			}
		} else if a.Int63() != ref.Int63() {
			return j, false
		}
	}
	return 0, true
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds(1000) {
		if j, ok := sourceMismatch(NewSource(seed), seed, sourceDraws); !ok {
			t.Fatalf("seed %d: raw draw %d differs from rand.NewSource", seed, j)
		}
		a, b := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
		for j := 0; j < 600; j++ {
			if x, y := a.Intn(1000), b.Intn(1000); x != y {
				t.Fatalf("seed %d: Intn call %d: %d, want %d", seed, j, x, y)
			}
			if x, y := a.Int63n(1<<40+3), b.Int63n(1<<40+3); x != y {
				t.Fatalf("seed %d: Int63n call %d: %d, want %d", seed, j, x, y)
			}
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("seed %d: Float64 call %d: %v, want %v", seed, j, x, y)
			}
			if j%100 == 0 {
				if x, y := a.Perm(12), b.Perm(12); !slices.Equal(x, y) {
					t.Fatalf("seed %d: Perm call %d: %v, want %v", seed, j, x, y)
				}
			}
		}
	}
}

// TestSourceReseedMatchesFresh reseeds sources that stopped before,
// at and after the last first-touch draw: no word of the old seed may
// leak into the new stream.
func TestSourceReseedMatchesFresh(t *testing.T) {
	for _, before := range []int{0, 1, rngTap - 1, rngTap, rngLen - rngTap - 1, rngLen - rngTap, rngLen, 10000} {
		s := NewSource(99)
		for j := 0; j < before; j++ {
			s.Uint64()
		}
		for _, seed := range []int64{0, 5, -12345, math.MaxInt64} {
			s.Seed(seed)
			if j, ok := sourceMismatch(s, seed, sourceDraws); !ok {
				t.Fatalf("after %d draws, Seed(%d): draw %d differs from a fresh source", before, seed, j)
			}
		}
	}
}

func TestGeneratorSeedMatchesNew(t *testing.T) {
	g := New(3)
	if _, err := g.Set("T", 40, 4, DefaultPeriodsSlots); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{11, 0, -7} {
		g.Seed(seed)
		a, errA := g.SetCapped("T", 30, 3, 0.9, DefaultPeriodsUS)
		b, errB := New(seed).SetCapped("T", 30, 3, 0.9, DefaultPeriodsUS)
		if errA != nil || errB != nil {
			t.Fatalf("SetCapped: %v, %v", errA, errB)
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Cost != b[i].Cost || a[i].Period != b[i].Period {
				t.Fatalf("seed %d: task %d is %v after Seed, %v from New", seed, i, a[i], b[i])
			}
		}
	}
}

func TestSourceSeedAllocatesNothing(t *testing.T) {
	s := NewSource(1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		s.Seed(seed)
		s.Uint64()
	})
	if allocs != 0 {
		t.Errorf("Seed plus a draw allocates %v times, want 0", allocs)
	}
}
