package rational

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// FuzzRatArithmetic cross-checks New, Add, Sub, Mul and Div against
// math/big on arbitrary operands, math.MinInt64 included: whenever the
// int64 implementation produces a value (rather than panicking as
// genuinely out of range), it must be the exact reduced big.Rat result.
func FuzzRatArithmetic(f *testing.F) {
	f.Add(int64(1), int64(2), int64(1), int64(3))
	f.Add(int64(1)<<62+1, int64(2), int64(1)<<62+1, int64(2))
	f.Add(int64(-5), int64(12), int64(7), int64(9))
	f.Add(int64(math.MinInt64), int64(6), int64(math.MinInt64), int64(-1))
	f.Add(int64(-1), int64(1), int64(math.MinInt64), int64(1))
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		if ad == 0 || bd == 0 {
			return
		}
		ba := new(big.Rat).SetFrac64(an, ad)
		bb := new(big.Rat).SetFrac64(bn, bd)
		var a, b Rat
		for _, c := range []struct {
			r        *Rat
			num, den int64
			want     *big.Rat
		}{{&a, an, ad, ba}, {&b, bn, bd, bb}} {
			fits := c.want.Num().IsInt64() && c.want.Denom().IsInt64()
			if mustPanic(func() { *c.r = New(c.num, c.den) }) {
				if fits {
					t.Fatalf("New(%d, %d) panicked but %v is representable", c.num, c.den, c.want)
				}
				return
			}
			if !fits || c.r.Num() != c.want.Num().Int64() || c.r.Den() != c.want.Denom().Int64() {
				t.Fatalf("New(%d, %d) = %v, want %v", c.num, c.den, *c.r, c.want)
			}
		}
		try := func(op func(Rat, Rat) Rat) (r Rat, ok bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			return op(a, b), true
		}
		check := func(name string, got Rat, ok bool, want *big.Rat) {
			if !ok {
				// A panic is only legitimate when the reduced result
				// truly exceeds int64.
				if want.Num().IsInt64() && want.Denom().IsInt64() {
					t.Errorf("%s(%v, %v) panicked but %v is representable", name, a, b, want)
				}
				return
			}
			if got.Num() != want.Num().Int64() || got.Den() != want.Denom().Int64() {
				t.Errorf("%s(%v, %v) = %v, want %v", name, a, b, got, want)
			}
		}
		got, ok := try(Rat.Add)
		check("Add", got, ok, new(big.Rat).Add(ba, bb))
		got, ok = try(Rat.Sub)
		check("Sub", got, ok, new(big.Rat).Sub(ba, bb))
		got, ok = try(Rat.Mul)
		check("Mul", got, ok, new(big.Rat).Mul(ba, bb))
		if bb.Sign() != 0 {
			got, ok = try(Rat.Div)
			check("Div", got, ok, new(big.Rat).Quo(ba, bb))
		}
	})
}

// FuzzAccMatchesBig runs a random sequence of Acc operations against a
// math/big model, with operands near ±2⁶³ so the int64 fast path
// overflows and spills, and after every step checks each observer of the
// value against the model: the representation may never show.
func FuzzAccMatchesBig(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0})
	f.Add([]byte{0, 16, 200, 3, 7, 0, 17, 3, 2, 9, 4, 16, 1, 5, 1, 2, 2, 2, 0, 17, 0, 9, 1})
	f.Add([]byte{5, 18, 255, 4, 0, 0, 19, 1, 4, 0, 1, 18, 127, 18, 128, 2, 20, 0, 3, 1})
	f.Add([]byte{0, 3, 0, 2, 1, 4, 4, 9, 0, 7, 0, 4, 2, 3, 5, 1, 0, 2, 6, 11, 3, 22, 1, 0})
	// A sum landing on math.MinInt64, whose magnitude needs 2⁶³ ('x' is
	// Add).
	f.Add([]byte("x1000x1000x1000x0\x85A*x0000x0000x0000x0000"))
	// 1/p for four primes near 10⁶: the fourth takes the lcm past 2⁶³
	// and spills. SubFrac and Over work on the spilled value, and SetInt
	// brings it back to int64.
	f.Add([]byte{6, 2, 0, 18, 0, 6, 2, 0, 20, 0, 6, 2, 0, 18, 30, 6, 2, 0, 20, 252, 7, 2, 0, 22, 0, 8, 0, 0, 8, 0, 5, 4, 0, 0, 0, 6, 3, 0, 20, 0})
	// 1 over 10⁶, taken below zero by SubFrac, last by math.MinInt64
	// (−(−2⁶³) has no int64 negation), then Set from an operand Acc.
	f.Add([]byte{8, 0, 0, 22, 0, 5, 2, 0, 0, 0, 7, 22, 0, 22, 0, 7, 6, 0, 10, 0, 7, 17, 1, 2, 0, 9, 6, 0, 22, 0})
	f.Fuzz(checkAccOps)
}

// TestAccMatchesBigRandom runs FuzzAccMatchesBig's body on pseudo-random
// programs, so plain `go test` covers more than the seed corpus.
func TestAccMatchesBigRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		ops := make([]byte, 5*(1+r.Intn(12)))
		r.Read(ops)
		checkAccOps(t, ops)
	}
}

// accEdges are the operand magnitudes the Acc parity check draws from:
// small values, the float64 exactness limit 2⁵³, and values at the int64
// limits, each perturbed by a signed byte (wrapping past MaxInt64 reaches
// MinInt64).
var accEdges = []int64{0, 1, 2, 3, 7, 1 << 31, 1 << 53, 1 << 62, math.MaxInt64, 1000003, 999983, 1000000}

func accOperand(sel, delta byte) int64 {
	v := accEdges[int(sel>>1)%len(accEdges)] + int64(int8(delta))
	if sel&1 == 1 {
		v = -v
	}
	return v
}

// accOpNames are checkAccOps' opcodes. AddFrac, SubFrac and Over take
// num/den as they come, a negative or math.MinInt64 denominator included;
// Set copies the operand Acc, which spills whenever num·den does not fit.
var accOpNames = []string{"Add", "Sub", "AddAcc", "SubAcc", "MulRat", "SetInt", "AddFrac", "SubFrac", "Over", "Set"}

// checkAccOps decodes ops as five-byte steps (opcode, numerator selector
// and delta, denominator selector and delta) and applies each to an Acc
// and to a big.Rat model. After every step it checks every reading of
// the Acc (checkAcc), and its compares with the step's operand: as a Rat,
// an integer, a fraction, an Acc of its own, and an Acc over the same
// common denominator as the value, where CmpAcc is one integer compare.
func checkAccOps(t *testing.T, ops []byte) {
	if len(ops) > 5*64 {
		ops = ops[:5*64] // repeated products grow the model without bound
	}
	acc := NewAcc()
	model := new(big.Rat)
	for i := 0; i+5 <= len(ops); i += 5 {
		num := accOperand(ops[i+1], ops[i+2])
		den := accOperand(ops[i+3], ops[i+4])
		if den == 0 || den == math.MinInt64 {
			den = 1 // 1/den must exist below
		}
		op := int(ops[i]) % len(accOpNames)
		frac := big.NewRat(num, den)
		var operand Rat
		ratOK := !mustPanic(func() { operand = New(num, den) })
		if !ratOK && (op <= 1 || op == 4) {
			continue // +2⁶³ over an odd denominator: no Rat holds it
		}
		// other is an Acc holding num/den, built to spill whenever den is
		// positive and num·den does not fit.
		other := NewAcc().SetInt(num).Over(den).MulRat(New(1, den))
		switch op {
		case 0:
			acc.Add(operand)
			model.Add(model, frac)
		case 1:
			acc.Sub(operand)
			model.Sub(model, frac)
		case 2:
			acc.AddAcc(other)
			model.Add(model, frac)
		case 3:
			acc.SubAcc(other)
			model.Sub(model, frac)
		case 4:
			acc.MulRat(operand)
			model.Mul(model, frac)
		case 5:
			acc.SetInt(num)
			model.SetInt64(num)
		case 6:
			acc.AddFrac(num, den)
			model.Add(model, frac)
		case 7:
			acc.SubFrac(num, den)
			model.Sub(model, frac)
		case 8:
			acc.Over(den)
		case 9:
			acc.Set(other)
			model.Set(frac)
		}
		step := fmt.Sprintf("step %d (%s %d/%d)", i/5, accOpNames[op], num, den)
		checkAcc(t, step, acc, model)
		checkAcc(t, step+", operand Acc", other, frac)
		want := model.Cmp(frac)
		if ratOK {
			if got := acc.Cmp(operand); got != want {
				t.Fatalf("%s: Cmp = %d, model %d", step, got, want)
			}
		}
		if got, w := acc.CmpInt(num), model.Cmp(new(big.Rat).SetInt64(num)); got != w {
			t.Fatalf("%s: CmpInt = %d, model %d", step, got, w)
		}
		if got := acc.CmpFrac(num, den); got != want {
			t.Fatalf("%s: CmpFrac = %d, model %d", step, got, want)
		}
		if got := acc.CmpAcc(other); got != want {
			t.Fatalf("%s: CmpAcc = %d, model %d", step, got, want)
		}
		over := acc.Clone().Over(den)
		shared := over.Clone().SetInt(0).AddFrac(num, den)
		checkAcc(t, step+", shared-denominator operand", shared, frac)
		if got := over.CmpAcc(shared); got != want {
			t.Fatalf("%s: CmpAcc over a shared denominator = %d, model %d", step, got, want)
		}
		if got := shared.CmpAcc(over); got != -want {
			t.Fatalf("%s: reversed CmpAcc over a shared denominator = %d, model %d", step, got, -want)
		}
	}
}

// checkAcc compares every reading of a with the exact model: String and
// Rat in lowest terms, Sign, Ceil, and Float bit for bit against
// big.Rat.Float64.
func checkAcc(t *testing.T, step string, a *Acc, model *big.Rat) {
	t.Helper()
	if got, w := a.String(), model.RatString(); got != w {
		t.Fatalf("%s: String = %s, model %s", step, got, w)
	}
	fits := model.Num().IsInt64() && model.Denom().IsInt64()
	if r, ok := a.Rat(); ok != fits || (ok && (r.num != model.Num().Int64() || r.den != model.Denom().Int64())) {
		t.Fatalf("%s: Rat = %d/%d, %v; model %s", step, r.num, r.den, ok, model.RatString())
	}
	if got, w := a.Sign(), model.Sign(); got != w {
		t.Fatalf("%s: Sign = %d, model %d", step, got, w)
	}
	wf, _ := model.Float64()
	if got := a.Float(); math.Float64bits(got) != math.Float64bits(wf) {
		t.Fatalf("%s: Float = %v (%#x), model %v (%#x)", step, got, math.Float64bits(got), wf, math.Float64bits(wf))
	}
	wc, cfits := bigCeil(model)
	if got, ok := tryCeil(a); ok != cfits || (ok && got != wc) {
		t.Fatalf("%s: Ceil = %d (ok %v), model %d (fits %v)", step, got, ok, wc, cfits)
	}
}

// bigCeil returns ⌈x⌉ and whether it fits int64.
func bigCeil(x *big.Rat) (int64, bool) {
	var q, m big.Int
	q.QuoRem(x.Num(), x.Denom(), &m)
	if m.Sign() > 0 && x.Sign() > 0 {
		q.Add(&q, big.NewInt(1))
	}
	return q.Int64(), q.IsInt64()
}

// tryCeil calls Acc.Ceil, reporting its documented overflow panic as
// ok=false.
func tryCeil(a *Acc) (c int64, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return a.Ceil(), true
}
