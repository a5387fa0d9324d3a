package taskgen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rootMismatch compares root(x, k) with math.Pow(x, 1/float64(k)) by
// their bits and describes the difference, or returns "".
func rootMismatch(x float64, k int) string {
	got, want := root(x, k), math.Pow(x, 1/float64(k))
	if math.Float64bits(got) == math.Float64bits(want) {
		return ""
	}
	return fmt.Sprintf("root(%x, %d) = %x, Pow %x", x, k, got, want)
}

// TestRootMatchesPow holds root to math.Pow bit for bit: on a million
// seeded (x, k) pairs drawn as UUniFast draws them, and on the edges of
// its domain, 0, the subnormals, the smallest normal and the largest
// value below 1, for every k up to 2000.
func TestRootMatchesPow(t *testing.T) {
	rng := rand.New(NewSource(33))
	for j := 0; j < 1_000_000; j++ {
		x, k := rng.Float64(), 1+rng.Intn(2000)
		if d := rootMismatch(x, k); d != "" {
			t.Fatalf("pair %d: %s", j, d)
		}
	}
	edges := []float64{
		0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52 - 1), // the largest subnormal
		0x1p-1022, 0x1p-63, 0.5, 0.999, math.Nextafter(1, 0), 1,
	}
	for _, x := range edges {
		for k := 1; k <= 2000; k++ {
			if d := rootMismatch(x, k); d != "" {
				t.Fatal(d)
			}
		}
	}
}

// skipCounts are the draw counts the skip tests use: both sides of the
// tap (273) and of the end of the lazy fill (334), one register length,
// and many register lengths.
var skipCounts = []int{0, 1, 272, 273, 274, 333, 334, 335, 607, 10_000}

// TestSkipFloat64MatchesRand: skipping k Float64 draws must leave a
// Source exactly as k calls of rand.Rand.Float64 on a twin source leave
// it, from every starting point around the lazy fill's boundaries.
func TestSkipFloat64MatchesRand(t *testing.T) {
	for _, seed := range oracleSeeds(20) {
		for _, before := range skipCounts {
			for _, k := range skipCounts {
				a, b := NewSource(seed), NewSource(seed)
				ra, rb := rand.New(a), rand.New(b)
				for j := 0; j < before; j++ {
					ra.Float64()
					rb.Float64()
				}
				a.skipFloat64(k)
				for j := 0; j < k; j++ {
					rb.Float64()
				}
				if *a != *b {
					t.Fatalf("seed %d, %d draws in: skipping %d differs from %d Float64 calls", seed, before, k, k)
				}
				if x, y := ra.Float64(), rb.Float64(); x != y {
					t.Fatalf("seed %d, %d draws in, %d skipped: next draw %v, want %v", seed, before, k, x, y)
				}
			}
		}
	}
}

// TestSkipFloat64Resample plants a draw that Float64 scales to 1 and so
// draws again. Skipping must pass over it without counting it, as
// Float64 does, both when it is the draw skipped and when later draws
// follow it.
func TestSkipFloat64Resample(t *testing.T) {
	if keptByFloat64(1<<63-1<<9) || !keptByFloat64(1<<63-1<<9-1) {
		t.Fatal("keptByFloat64 does not split at 2⁶³ − 2⁹")
	}
	for _, k := range []int{1, 2, 500} {
		for _, planted := range []int64{1<<63 - 1, 1<<63 - 1<<9} {
			a := NewSource(1)
			a.skipFloat64(1000) // past the lazy fill
			// The next draw is vec[feed−1] + vec[tap−1]: make it planted.
			tap, feed := (a.tap+rngLen-1)%rngLen, (a.feed+rngLen-1)%rngLen
			a.vec[feed] = planted - a.vec[tap]
			b := *a
			a.skipFloat64(k)
			rb := rand.New(&b)
			for j := 0; j < k; j++ {
				rb.Float64()
			}
			if *a != b {
				t.Fatalf("k=%d, planted %#x: skip differs from Float64", k, planted)
			}
			if want := (feed + rngLen - k) % rngLen; a.feed != want {
				t.Fatalf("k=%d, planted %#x: skip moved feed to %d, want %d (one draw past k)", k, planted, a.feed, want)
			}
		}
	}
}
