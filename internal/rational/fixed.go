package rational

import (
	"cmp"
	"math"
)

// Fixed is an exact rational accumulator over one common denominator.
//
// It is for sums whose operands' denominators all divide one small
// number, such as the utilizations of a task set whose periods share a
// small lcm. The value is held as num/den, with den that common
// denominator, not in lowest terms. Once den covers every operand,
// adding or subtracting a fraction costs one int64 division, one
// product and one sum, and comparing two values over the same den costs
// one integer compare. Acc, by contrast, runs a gcd on every operation
// to keep its value in lowest terms.
//
// den only grows. An operand whose denominator does not divide den
// widens den to the lcm and rescales the value; Over does the same
// ahead of time, so a caller that widens once by every denominator it
// will use pays no gcd afterwards. When the lcm or a numerator leaves
// int64, the value moves to an Acc, exact, and stays there: Acc spills
// on to math/big in turn. Results never depend on the representation,
// and Float and Ceil return what Acc returns for the same value.
//
// A positive operand denominator keeps the int64 path; a negative one is
// taken exactly on the Acc path, and zero panics as in New. The zero
// value holds 0 over the common denominator 1. Like an Acc, a Fixed that
// may have spilled is copied with Set, not by assignment, which would
// share its Acc.
type Fixed struct {
	num   int64 // the value is num/den while spill is nil
	den   int64 // the common denominator; 0 in the zero value, read as 1
	spill *Acc  // the value once int64 overflowed; nil until then
}

// denom returns the common denominator.
func (f *Fixed) denom() int64 {
	if f.den == 0 {
		return 1
	}
	return f.den
}

// promote moves the value to an Acc, where it stays.
func (f *Fixed) promote() {
	if f.spill == nil {
		f.spill = &Acc{r: New(f.num, f.denom())}
	}
}

// asAcc returns the value as an Acc: the spilled one itself, or tmp set
// to it.
func (f *Fixed) asAcc(tmp *Acc) *Acc {
	if f.spill != nil {
		return f.spill
	}
	tmp.r, tmp.spill = New(f.num, f.denom()), nil
	return tmp
}

// cover widens den to a multiple of d and reports whether the value is
// still on the int64 path with d dividing den.
func (f *Fixed) cover(d int64) bool {
	if f.spill != nil || d <= 0 {
		return false
	}
	den := f.denom()
	if den%d == 0 {
		f.den = den
		return true
	}
	if l, ok := LCMOK(den, d); ok {
		if n, ok := mulOK(f.num, l/den); ok {
			f.num, f.den = n, l
			return true
		}
	}
	f.promote()
	return false
}

// Over widens the common denominator to a multiple of d, keeping the
// value, and returns f for chaining.
func (f *Fixed) Over(d int64) *Fixed {
	_ = f.cover(d)
	return f
}

// SetInt sets the value to the integer n, keeping the common
// denominator, and returns f.
func (f *Fixed) SetInt(n int64) *Fixed {
	if f.spill == nil {
		if v, ok := mulOK(n, f.denom()); ok {
			f.num = v
			return f
		}
		f.promote()
	}
	f.spill.SetInt(n)
	return f
}

// Set copies g's value and common denominator into f and returns f.
func (f *Fixed) Set(g *Fixed) *Fixed {
	if f == g {
		return f
	}
	f.num, f.den, f.spill = g.num, g.den, nil
	if g.spill != nil {
		f.spill = new(Acc).Set(g.spill)
	}
	return f
}

// AddFrac adds n/d and returns f.
func (f *Fixed) AddFrac(n, d int64) *Fixed {
	if f.cover(d) {
		if v, ok := mulOK(n, f.den/d); ok {
			if s, ok := addOK(f.num, v); ok {
				f.num = s
				return f
			}
		}
	}
	f.promote()
	f.spill.Add(New(n, d))
	return f
}

// SubFrac subtracts n/d and returns f.
func (f *Fixed) SubFrac(n, d int64) *Fixed {
	if n != math.MinInt64 {
		return f.AddFrac(-n, d)
	}
	f.promote()
	f.spill.Sub(New(n, d))
	return f
}

// Cmp compares f with g: −1 if f < g, 0 if equal, +1 if f > g. Over the
// same common denominator it is one integer compare.
func (f *Fixed) Cmp(g *Fixed) int {
	if f.spill == nil && g.spill == nil {
		if f.den == g.den {
			return cmp.Compare(f.num, g.num)
		}
		return Rat{f.num, f.denom()}.Cmp(Rat{g.num, g.denom()})
	}
	var ta, tb Acc
	return f.asAcc(&ta).CmpAcc(g.asAcc(&tb))
}

// CmpFrac compares f with n/d: −1 if less, 0 if equal, +1 if greater.
func (f *Fixed) CmpFrac(n, d int64) int {
	if f.spill == nil && d > 0 {
		return Rat{f.num, f.denom()}.Cmp(Rat{n, d})
	}
	var t Acc
	return f.asAcc(&t).Cmp(New(n, d))
}

// Ceil returns ⌈value⌉. Like Acc.Ceil, it panics if the result does not
// fit in int64, which only a spilled value can reach.
func (f *Fixed) Ceil() int64 {
	if f.spill == nil {
		return CeilDiv(f.num, f.denom())
	}
	return f.spill.Ceil()
}

// Float returns the nearest float64 for reporting, bit for bit what
// Acc.Float returns for the same value.
func (f *Fixed) Float() float64 {
	var t Acc
	//pfair:allowfloat a reporting bridge itself, delegating to Acc.Float so the two agree bit for bit
	return f.asAcc(&t).Float()
}
