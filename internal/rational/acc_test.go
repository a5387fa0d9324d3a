package rational

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccBasics(t *testing.T) {
	a := NewAcc()
	if a.Sign() != 0 {
		t.Error("fresh Acc not zero")
	}
	a.Add(New(1, 2)).Add(New(1, 3)).Add(New(1, 6))
	if a.CmpInt(1) != 0 {
		t.Errorf("1/2+1/3+1/6 = %v, want 1", a)
	}
	if a.Sign() != 1 {
		t.Error("positive Acc sign mismatch")
	}
	a.Sub(New(3, 2))
	if a.Cmp(New(-1, 2)) != 0 {
		t.Errorf("after Sub: %v, want -1/2", a)
	}
	if a.Sign() != -1 {
		t.Error("negative Acc sign mismatch")
	}
	if a.String() != "-1/2" {
		t.Errorf("String = %q", a.String())
	}
}

func TestAccCeilFloatClone(t *testing.T) {
	a := NewAcc().Add(New(7, 3)) // 2.333…
	if got := a.Ceil(); got != 3 {
		t.Errorf("Ceil = %d, want 3", got)
	}
	if f := a.Float(); f < 2.33 || f > 2.34 {
		t.Errorf("Float = %v", f)
	}
	b := a.Clone()
	b.Add(One())
	if a.Cmp(New(7, 3)) != 0 {
		t.Error("Clone is not independent")
	}
	if b.Cmp(New(10, 3)) != 0 {
		t.Errorf("clone+1 = %v, want 10/3", b)
	}
	// Negative and integer ceilings.
	if got := NewAcc().Sub(New(7, 3)).Ceil(); got != -2 {
		t.Errorf("Ceil(-7/3) = %d, want -2", got)
	}
	if got := NewAcc().Add(FromInt(5)).Ceil(); got != 5 {
		t.Errorf("Ceil(5) = %d, want 5", got)
	}
}

func TestAccAddAcc(t *testing.T) {
	a := NewAcc().Add(New(1, 3))
	b := NewAcc().Add(New(2, 3))
	a.AddAcc(b)
	if a.CmpInt(1) != 0 {
		t.Errorf("AddAcc = %v, want 1", a)
	}
}

func TestAccRatRoundTrip(t *testing.T) {
	a := NewAcc().Add(New(8, 11)).Sub(New(1, 11))
	r, ok := a.Rat()
	if !ok || r.Cmp(New(7, 11)) != 0 {
		t.Errorf("Rat = %v (%v)", r, ok)
	}
	// A sum whose reduced denominator exceeds int64 does not fit: build
	// one from many co-prime denominators.
	big := NewAcc()
	for _, p := range []int64{1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121} {
		big.Add(New(1, p))
	}
	if _, ok := big.Rat(); ok {
		t.Error("astronomical denominator claimed to fit in int64")
	}
	if big.Sign() != 1 || big.CmpInt(1) >= 0 {
		t.Error("big sum out of expected range")
	}
}

// TestQuickAccMatchesRat: on moderate inputs Acc arithmetic agrees with
// the int64 Rat arithmetic.
func TestQuickAccMatchesRat(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		acc := NewAcc()
		sum := Zero()
		for i := 0; i < 12; i++ {
			x := New(r.Int63n(2001)-1000, r.Int63n(50)+1)
			acc.Add(x)
			sum = sum.Add(x)
		}
		if acc.Cmp(sum) != 0 {
			return false
		}
		got, ok := acc.Rat()
		return ok && got.Cmp(sum) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickAccCeilMatchesRatCeil: Ceil agrees with Rat.Ceil on values that
// fit.
func TestQuickAccCeilMatchesRatCeil(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := New(r.Int63n(200001)-100000, r.Int63n(1000)+1)
		return NewAcc().Add(x).Ceil() == x.Ceil()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAccLCMOverflowSpills widens the common denominator by co-prime
// periods until their lcm leaves int64: the value must move to math/big
// and stay exact, SetInt must bring it back to int64, and an Acc whose
// lcm never overflowed must keep the int64 path.
func TestAccLCMOverflowSpills(t *testing.T) {
	primes := []int64{99991, 99989, 99971, 99961, 99929}
	var a Acc
	model := new(big.Rat)
	for i, p := range primes {
		a.AddFrac(p-1, p)
		model.Add(model, big.NewRat(p-1, p))
		checkAcc(t, fmt.Sprintf("after 1/%d", p), &a, model)
		// 99991·99989·99971 ≈ 10¹⁵ fits; the fourth prime takes the lcm
		// past 2⁶³.
		if spilled := a.spill != nil; spilled != (i >= 3) {
			t.Fatalf("after %d periods: spilled = %v", i+1, spilled)
		}
	}
	// The spilled value keeps taking operands exactly, Over included.
	a.Over(7).SubFrac(3, 7)
	model.Sub(model, big.NewRat(3, 7))
	checkAcc(t, "after SubFrac on the spilled value", &a, model)
	a.SetInt(2).AddFrac(-1, 99991)
	checkAcc(t, "after SetInt on the spilled value", &a, big.NewRat(2*99991-1, 99991))
	if a.spill != nil {
		t.Fatal("SetInt left the value in math/big")
	}

	var small Acc
	for _, p := range []int64{50000, 100000, 200000, 250000, 500000, 1000000} {
		small.Over(p)
	}
	if small.spill != nil || small.den != 1000000 {
		t.Fatalf("Figure 3 menu: den %d, spilled %v; want 10⁶ on the int64 path", small.den, small.spill != nil)
	}
}

// TestAccNumeratorOverflowSpills: a sum whose numerator leaves int64
// over a den that still fits moves to math/big the same way, and SetInt
// over a den whose product with n overflows starts again from n/1.
func TestAccNumeratorOverflowSpills(t *testing.T) {
	var a Acc
	a.Over(3)
	a.AddFrac(math.MaxInt64/3, 1) // numerator MaxInt64/3·3 fits
	if a.spill != nil {
		t.Fatal("spilled before the numerator overflowed")
	}
	a.AddFrac(1, 1)
	if a.spill == nil {
		t.Fatal("numerator past MaxInt64 did not spill")
	}
	model := new(big.Rat).SetInt64(math.MaxInt64 / 3)
	model.Add(model, big.NewRat(1, 1))
	checkAcc(t, "after overflow", &a, model)
	var b Acc
	b.Over(1 << 40).SetInt(1 << 30)
	if b.spill != nil || b.den != 1 {
		t.Fatalf("SetInt(2³⁰) over 2⁴⁰: den %d, spilled %v; want 1 on the int64 path", b.den, b.spill != nil)
	}
	checkAcc(t, "SetInt overflow", &b, new(big.Rat).SetInt64(1<<30))
}

// TestAccFloatAt2To53 checks Float where float64 stops being exact:
// numerators at and past 2⁵³, over den 1 and over a den that the value
// does not need (so the int64 numerator is past 2⁵³ while the reduced one
// is not).
func TestAccFloatAt2To53(t *testing.T) {
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
		a := NewAcc().Over(c.over).AddFrac(c.n, c.d)
		step := fmt.Sprintf("%d/%d over %d", c.n, c.d, c.over)
		checkAcc(t, step, a, big.NewRat(c.n, c.d))
		if plain := NewAcc().AddFrac(c.n, c.d); math.Float64bits(a.Float()) != math.Float64bits(plain.Float()) {
			t.Fatalf("%s: Float %v, over its own denominator %v", step, a.Float(), plain.Float())
		}
	}
}

// TestAccSubBelowZero: subtracting past zero gives a negative value
// whose Ceil rounds toward zero, and whose compares see the sign.
func TestAccSubBelowZero(t *testing.T) {
	var a, zero Acc
	a.Over(1000000).SetInt(1)
	zero.Over(1000000)
	a.SubFrac(700000, 1000000).SubFrac(3, 5).SubFrac(1, 4)
	model := big.NewRat(1, 1)
	for _, r := range []*big.Rat{big.NewRat(7, 10), big.NewRat(3, 5), big.NewRat(1, 4)} {
		model.Sub(model, r)
	}
	checkAcc(t, "1 − 7/10 − 3/5 − 1/4", &a, model) // −11/20
	if got := a.Ceil(); got != 0 {
		t.Errorf("Ceil(−11/20) = %d, want 0", got)
	}
	if a.CmpAcc(&zero) >= 0 || zero.CmpAcc(&a) <= 0 {
		t.Error("negative value does not compare below zero")
	}
	if a.CmpFrac(-11, 20) != 0 || a.CmpFrac(-1, 2) >= 0 || a.CmpFrac(-3, 5) <= 0 {
		t.Error("CmpFrac misorders −11/20")
	}
	a.SubFrac(3, 2)
	model.Sub(model, big.NewRat(3, 2))
	checkAcc(t, "−11/20 − 3/2", &a, model) // −41/20
	if got := a.Ceil(); got != -2 {
		t.Errorf("Ceil(−41/20) = %d, want −2", got)
	}
	a.SubFrac(math.MinInt64, 1)
	model.Sub(model, new(big.Rat).SetInt64(math.MinInt64))
	checkAcc(t, "− MinInt64", &a, model)
}

// TestAccZeroValue: the zero value is 0 over 1, and compares and copies
// like any other.
func TestAccZeroValue(t *testing.T) {
	var a, b Acc
	checkAcc(t, "zero value", &a, new(big.Rat))
	if a.CmpAcc(&b) != 0 || a.CmpFrac(0, 5) != 0 || a.CmpFrac(1, 5) >= 0 {
		t.Error("zero values misordered")
	}
	b.SetInt(3)
	if a.CmpAcc(&b) >= 0 || b.CmpAcc(&a) <= 0 {
		t.Error("0 vs 3 misordered")
	}
	a.Set(&b)
	checkAcc(t, "after Set", &a, big.NewRat(3, 1))
}

// TestAccLowestTermsAfterOver: String and Rat reduce the value, however
// wide the common denominator it is held over.
func TestAccLowestTermsAfterOver(t *testing.T) {
	for _, c := range []struct {
		a    *Acc
		want string
		num  int64
		den  int64
	}{
		{NewAcc().Over(1000000).AddFrac(1, 4).AddFrac(1, 4), "1/2", 1, 2},
		{NewAcc().Over(6).AddFrac(1, 2).AddFrac(1, 2), "1", 1, 1},
		{NewAcc().Over(360).SubFrac(120, 360), "-1/3", -1, 3},
		{NewAcc().Over(2000).AddFrac(3, 4).SubFrac(3, 4), "0", 0, 1},
	} {
		if c.a.den == c.den {
			t.Fatalf("%s: held over %d, want a wider common denominator", c.want, c.a.den)
		}
		r, ok := c.a.Rat()
		if got := c.a.String(); got != c.want || !ok || r.num != c.num || r.den != c.den {
			t.Errorf("String = %q, Rat = %d/%d (%v); want %q, %d/%d", got, r.num, r.den, ok, c.want, c.num, c.den)
		}
	}
}

// fixedDens are the operand denominators of the random parity check:
// divisors of the Figure 3 lcm, primes whose lcms overflow, the float64
// exactness limit and the int64 limit, and a negative denominator, which
// Acc takes in math/big.
var fixedDens = []int64{1, 2, 3, 7, 1000, 50000, 250000, 1000000, 99991, 999983, 1000003, 1<<31 - 1, 1 << 53, math.MaxInt64, -6}

// TestFixedMatchesAccRandom runs random programs of AddFrac, SubFrac,
// SetInt, Over and Set on an Acc, the fixed-denominator path that
// replaced Fixed, and checks every reading after every step against an
// exact big.Rat model, CmpAcc against a second Acc, and CmpFrac against
// the step's operand.
func TestFixedMatchesAccRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for prog := 0; prog < 400; prog++ {
		var f, other Acc
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
			checkAcc(t, step, &f, model)
			checkAcc(t, step+" other", &other, otherModel)
			if got, want := f.CmpAcc(&other), model.Cmp(otherModel); got != want {
				t.Fatalf("%s: CmpAcc = %d, model %d", step, got, want)
			}
			if got, want := f.CmpFrac(n, d), model.Cmp(big.NewRat(n, d)); got != want {
				t.Fatalf("%s: CmpFrac = %d, model %d", step, got, want)
			}
		}
	}
}
