package taskgen

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// fig3PeriodsUS mirrors experiments.Fig3PeriodsUS (that package imports
// this one, so the test cannot).
var fig3PeriodsUS = []int64{50000, 100000, 200000, 250000, 500000, 1000000}

// setCappedGolden is the SHA-256 of every task (name, cost, period) that
// SetCapped returns at the Figure 3 shapes below: N ∈ {50, 500}, the
// sweep's lowest, middle and highest totals (N/30 … N/3), cap 0.9, for
// several seeds, each generator making the calls in sequence so the
// digest also covers the state every call leaves behind. Any change to
// the draws, the rejection loop, the repair or the naming moves it.
const setCappedGolden = "ae0b0face1043fc288ed1cd49c38465fa118a0c8f0962df945f250b883d64e5c"

func TestSetCappedGoldenDigest(t *testing.T) {
	h := sha256.New()
	for _, seed := range []int64{1, 2, 7, 1 << 40} {
		g := New(SubSeed(seed, 3))
		for _, n := range []int{50, 500} {
			for _, total := range []float64{float64(n) / 30, float64(n) / 6, float64(n) / 3} {
				set, err := g.SetCapped("T", n, total, 0.9, fig3PeriodsUS)
				if err != nil {
					t.Fatalf("SetCapped(%d, %v): %v", n, total, err)
				}
				for _, tk := range set {
					fmt.Fprintf(h, "%s %d %d\n", tk.Name, tk.Cost, tk.Period)
				}
			}
		}
		fmt.Fprintf(h, "next %d\n", g.rng.Int63())
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != setCappedGolden {
		t.Errorf("SetCapped digest = %s, want %s", got, setCappedGolden)
	}
}
