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
	f.Add([]byte{0, 16, 200, 3, 7, 0, 17, 3, 2, 9, 4, 16, 1, 5, 1, 8, 2, 2, 0, 17, 0, 9, 1})
	f.Add([]byte{5, 18, 255, 4, 0, 0, 19, 1, 4, 0, 1, 18, 127, 18, 128, 2, 20, 0, 3, 1})
	f.Add([]byte{6, 3, 0, 2, 1, 4, 4, 9, 0, 7, 0, 4, 2, 3, 5, 1, 0, 2, 6, 11, 3, 22, 1, 0})
	// A sum landing on math.MinInt64, whose magnitude needs 2⁶³.
	f.Add([]byte("01000010000100000\x85A*00000000000000000000"))
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

// checkAccOps decodes ops as five-byte steps (opcode, numerator selector
// and delta, denominator selector and delta) and applies each to an Acc
// and to a big.Rat model.
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
		op := ops[i] % 6
		var operand Rat
		if op != 5 && mustPanic(func() { operand = New(num, den) }) {
			continue // +2⁶³ over an odd denominator; SetInt takes any int64
		}
		want := new(big.Rat).SetFrac64(operand.Num(), operand.Den())
		// other is an Acc built to spill whenever num·den does not fit.
		other := NewAcc().Add(FromInt(num)).MulRat(New(1, den))
		otherModel := new(big.Rat).SetFrac64(num, den)
		var name string
		switch op {
		case 0:
			name = "Add"
			acc.Add(operand)
			model.Add(model, want)
		case 1:
			name = "Sub"
			acc.Sub(operand)
			model.Sub(model, want)
		case 2:
			name = "AddAcc"
			acc.AddAcc(other)
			model.Add(model, otherModel)
		case 3:
			name = "SubAcc"
			acc.SubAcc(other)
			model.Sub(model, otherModel)
		case 4:
			name = "MulRat"
			acc.MulRat(operand)
			model.Mul(model, want)
		case 5:
			name = "SetInt"
			acc.SetInt(num)
			model.SetInt64(num)
		}
		step := fmt.Sprintf("step %d (%s %d/%d)", i/5, name, num, den)
		if got, w := acc.String(), model.RatString(); got != w {
			t.Fatalf("%s: String = %s, model %s", step, got, w)
		}
		if got, w := other.String(), otherModel.RatString(); got != w {
			t.Fatalf("%s: operand Acc String = %s, model %s", step, got, w)
		}
		if op != 5 {
			if got, w := acc.Cmp(operand), model.Cmp(want); got != w {
				t.Fatalf("%s: Cmp = %d, model %d", step, got, w)
			}
		}
		if got, w := acc.CmpInt(num), model.Cmp(new(big.Rat).SetInt64(num)); got != w {
			t.Fatalf("%s: CmpInt = %d, model %d", step, got, w)
		}
		if got, w := acc.CmpAcc(other), model.Cmp(otherModel); got != w {
			t.Fatalf("%s: CmpAcc = %d, model %d", step, got, w)
		}
		if got, w := acc.Sign(), model.Sign(); got != w {
			t.Fatalf("%s: Sign = %d, model %d", step, got, w)
		}
		wf, _ := model.Float64()
		if got := acc.Float(); math.Float64bits(got) != math.Float64bits(wf) {
			t.Fatalf("%s: Float = %v (%#x), model %v (%#x)", step, got, math.Float64bits(got), wf, math.Float64bits(wf))
		}
		fits := model.Num().IsInt64() && model.Denom().IsInt64()
		if r, ok := acc.Rat(); ok != fits || (ok && (r.Num() != model.Num().Int64() || r.Den() != model.Denom().Int64())) {
			t.Fatalf("%s: Rat = %v, %v; model %s", step, r, ok, model.RatString())
		}
		wc, cfits := bigCeil(model)
		if got, ok := tryCeil(acc); ok != cfits || (ok && got != wc) {
			t.Fatalf("%s: Ceil = %d (ok %v), model %d (fits %v)", step, got, ok, wc, cfits)
		}
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
