package rational

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fixedValue returns f's exact value as a big.Rat.
func fixedValue(f *Fixed) *big.Rat {
	var t Acc
	a := f.asAcc(&t)
	if a.spill != nil {
		return new(big.Rat).Set(a.spill)
	}
	return new(big.Rat).SetFrac64(a.r.normalized().num, a.r.normalized().den)
}

// checkFixed compares every reading of f with the exact model: its value,
// Ceil, Float (bit for bit against big.Rat.Float64, which Acc.Float also
// matches), and Cmp and CmpFrac against a probe value.
func checkFixed(t *testing.T, step string, f *Fixed, model *big.Rat) {
	t.Helper()
	if got := fixedValue(f); got.Cmp(model) != 0 {
		t.Fatalf("%s: value %s, model %s", step, got.RatString(), model.RatString())
	}
	wf, _ := model.Float64()
	if got := f.Float(); math.Float64bits(got) != math.Float64bits(wf) {
		t.Fatalf("%s: Float = %v (%#x), model %v (%#x)", step, got, math.Float64bits(got), wf, math.Float64bits(wf))
	}
	wc, cfits := bigCeil(model)
	got, ok := func() (c int64, ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		return f.Ceil(), true
	}()
	if ok != cfits || (ok && got != wc) {
		t.Fatalf("%s: Ceil = %d (ok %v), model %d (fits %v)", step, got, ok, wc, cfits)
	}
}

// TestFixedLCMOverflowSpills widens the common denominator by co-prime
// periods until their lcm leaves int64: the value must move to the Acc
// path and stay exact, and a Fixed that never overflowed must keep the
// int64 path.
func TestFixedLCMOverflowSpills(t *testing.T) {
	primes := []int64{99991, 99989, 99971, 99961, 99929}
	var f Fixed
	model := new(big.Rat)
	for i, p := range primes {
		f.AddFrac(p-1, p)
		model.Add(model, big.NewRat(p-1, p))
		checkFixed(t, fmt.Sprintf("after 1/%d", p), &f, model)
		// 99991·99989·99971 ≈ 10¹⁵ fits; the fourth prime takes the lcm
		// past 2⁶³.
		if spilled := f.spill != nil; spilled != (i >= 3) {
			t.Fatalf("after %d periods: spilled = %v", i+1, spilled)
		}
	}
	// The spilled value keeps taking operands exactly, Over included.
	f.Over(7).SubFrac(3, 7).SetInt(2).AddFrac(-1, 99991)
	model.SetFrac64(2*99991-1, 99991)
	checkFixed(t, "after SetInt on the spilled value", &f, model)

	var small Fixed
	for _, p := range []int64{50000, 100000, 200000, 250000, 500000, 1000000} {
		small.Over(p)
	}
	if small.spill != nil || small.den != 1000000 {
		t.Fatalf("Figure 3 menu: den %d, spilled %v; want 10⁶ on the int64 path", small.den, small.spill != nil)
	}
}

// TestFixedNumeratorOverflowSpills: a sum whose numerator leaves int64
// over a den that still fits moves to the Acc path the same way.
func TestFixedNumeratorOverflowSpills(t *testing.T) {
	var f Fixed
	f.Over(3)
	f.AddFrac(math.MaxInt64/3, 1) // numerator MaxInt64/3·3 fits
	if f.spill != nil {
		t.Fatal("spilled before the numerator overflowed")
	}
	f.AddFrac(1, 1)
	if f.spill == nil {
		t.Fatal("numerator past MaxInt64 did not spill")
	}
	model := new(big.Rat).SetInt64(math.MaxInt64 / 3)
	model.Add(model, big.NewRat(1, 1))
	checkFixed(t, "after overflow", &f, model)
	// SetInt over a den whose product with n overflows spills too.
	var g Fixed
	g.Over(1 << 40).SetInt(1 << 30)
	if g.spill == nil {
		t.Fatal("SetInt(2³⁰) over 2⁴⁰ did not spill")
	}
	checkFixed(t, "SetInt overflow", &g, new(big.Rat).SetInt64(1<<30))
}

// TestFixedFloatAt2To53 checks Float where float64 stops being exact:
// numerators at and past 2⁵³, over den 1 and over a den that the value
// does not need (so the int64 numerator is past 2⁵³ while the reduced one
// is not).
func TestFixedFloatAt2To53(t *testing.T) {
	for _, c := range []struct{ n, d, over int64 }{
		{1 << 53, 1, 1},
		{1<<53 + 1, 1, 1},
		{1<<53 + 3, 1, 1},
		{1<<53 + 1, 3, 3},
		{-(1<<53 + 1), 7, 7},
		{1, 3, 1 << 53},
		{1, 3, 3 << 52},
		{5, 7, 7 << 50},
		{math.MaxInt64, 1, 1},
		{1<<62 + 1, 1<<53 + 1, 1<<53 + 1},
	} {
		var f Fixed
		f.Over(c.over).AddFrac(c.n, c.d)
		model := big.NewRat(c.n, c.d)
		step := fmt.Sprintf("%d/%d over %d", c.n, c.d, c.over)
		checkFixed(t, step, &f, model)
		acc := NewAcc().Add(New(c.n, c.d))
		if math.Float64bits(f.Float()) != math.Float64bits(acc.Float()) {
			t.Fatalf("%s: Float %v, Acc.Float %v", step, f.Float(), acc.Float())
		}
	}
}

// TestFixedSubBelowZero: subtracting past zero gives a negative value
// whose Ceil rounds toward zero, and whose compares see the sign.
func TestFixedSubBelowZero(t *testing.T) {
	var f, zero Fixed
	f.Over(1000000).SetInt(1)
	zero.Over(1000000)
	f.SubFrac(700000, 1000000).SubFrac(3, 5).SubFrac(1, 4)
	model := big.NewRat(1, 1)
	for _, r := range []*big.Rat{big.NewRat(7, 10), big.NewRat(3, 5), big.NewRat(1, 4)} {
		model.Sub(model, r)
	}
	checkFixed(t, "1 − 7/10 − 3/5 − 1/4", &f, model) // −11/20
	if got := f.Ceil(); got != 0 {
		t.Errorf("Ceil(−11/20) = %d, want 0", got)
	}
	if f.Cmp(&zero) >= 0 || zero.Cmp(&f) <= 0 {
		t.Error("negative value does not compare below zero")
	}
	if f.CmpFrac(-11, 20) != 0 || f.CmpFrac(-1, 2) >= 0 || f.CmpFrac(-3, 5) <= 0 {
		t.Error("CmpFrac misorders −11/20")
	}
	f.SubFrac(3, 2)
	model.Sub(model, big.NewRat(3, 2))
	checkFixed(t, "−11/20 − 3/2", &f, model) // −41/20
	if got := f.Ceil(); got != -2 {
		t.Errorf("Ceil(−41/20) = %d, want −2", got)
	}
	f.SubFrac(math.MinInt64, 1)
	model.Sub(model, new(big.Rat).SetInt64(math.MinInt64))
	checkFixed(t, "− MinInt64", &f, model)
}

// TestFixedZeroValue: the zero value is 0 over 1, and compares and
// copies like any other.
func TestFixedZeroValue(t *testing.T) {
	var a, b Fixed
	checkFixed(t, "zero value", &a, new(big.Rat))
	if a.Cmp(&b) != 0 || a.CmpFrac(0, 5) != 0 || a.CmpFrac(1, 5) >= 0 {
		t.Error("zero values misordered")
	}
	b.SetInt(3)
	if a.Cmp(&b) >= 0 || b.Cmp(&a) <= 0 {
		t.Error("0 vs 3 misordered")
	}
	a.Set(&b)
	checkFixed(t, "after Set", &a, big.NewRat(3, 1))
}

// fixedDens are the operand denominators of the random parity check:
// divisors of the Figure 3 lcm, primes whose lcms overflow, the float64
// exactness limit and the int64 limit, and two values the Acc path takes
// (a negative denominator, which the int64 path does not).
var fixedDens = []int64{1, 2, 3, 7, 1000, 50000, 250000, 1000000, 99991, 999983, 1000003, 1<<31 - 1, 1 << 53, math.MaxInt64, -6}

// TestFixedMatchesAccRandom runs random programs of AddFrac, SubFrac,
// SetInt, Over and Set on a Fixed, and checks every reading after every
// step against an exact big.Rat model, and Cmp against a second Fixed.
func TestFixedMatchesAccRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for prog := 0; prog < 400; prog++ {
		var f, other Fixed
		model, otherModel := new(big.Rat), new(big.Rat)
		for i := 0; i < 30; i++ {
			n := accOperand(byte(r.Intn(256)), byte(r.Intn(256)))
			d := fixedDens[r.Intn(len(fixedDens))]
			var name string
			switch r.Intn(6) {
			case 0, 1:
				name = "AddFrac"
				f.AddFrac(n, d)
				model.Add(model, big.NewRat(n, d))
			case 2:
				name = "SubFrac"
				f.SubFrac(n, d)
				model.Sub(model, big.NewRat(n, d))
			case 3:
				name = "SetInt"
				f.SetInt(n)
				model.SetInt64(n)
			case 4:
				name = "Over"
				f.Over(d)
			case 5:
				name = "other.AddFrac, Set"
				other.AddFrac(n, d)
				otherModel.Add(otherModel, big.NewRat(n, d))
				if r.Intn(3) == 0 {
					f.Set(&other)
					model.Set(otherModel)
				}
			}
			step := fmt.Sprintf("program %d step %d (%s %d/%d)", prog, i, name, n, d)
			checkFixed(t, step, &f, model)
			checkFixed(t, step+" other", &other, otherModel)
			if got, want := f.Cmp(&other), model.Cmp(otherModel); got != want {
				t.Fatalf("%s: Cmp = %d, model %d", step, got, want)
			}
			if got, want := f.CmpFrac(n, d), model.Cmp(big.NewRat(n, d)); got != want {
				t.Fatalf("%s: CmpFrac = %d, model %d", step, got, want)
			}
		}
	}
}
