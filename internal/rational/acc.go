package rational

import (
	"cmp"
	"math"
	"math/big"
)

// Acc is an exact rational accumulator of unbounded precision.
//
// Rat deliberately restricts itself to int64 components, which is safe for
// per-task quantities (a task's lags and window bounds have denominators
// dividing its period). Sums across a task *set* — the Σ wt(T) of the
// feasibility condition (2) — have denominators near the lcm of all
// periods, which overflows int64 for realistic sets of hundreds of tasks
// with co-prime periods.
//
// Acc therefore has two representations. While its value fits, it is
// num/den with both int64 and den a common denominator of the operands
// seen so far, not in lowest terms. Once den covers an operand's
// denominator, adding or subtracting it costs one int64 division, one
// product and one sum, and comparing two values over the same den costs
// one integer compare; neither runs a gcd. An operand whose
// denominator does not divide den widens den to their lcm and rescales
// the value; Over does the same ahead of time, so a caller that widens
// once by every denominator it will use pays no gcd afterwards. den only
// grows under Add, Sub and Over. MulRat leaves the product in lowest
// terms, and SetInt keeps den while n·den fits.
//
// The first operation whose lcm or int64 intermediates would overflow
// moves the value to a math/big Rat, where it stays, exact, until SetInt
// or Set replaces it. Results never depend on the representation: every
// method returns what the same sequence of math/big operations would.
// String and Rat give the value in lowest terms, and Float matches
// big.Rat.Float64 bit for bit.
//
// A positive operand denominator keeps the int64 path; a negative one is
// taken exactly in math/big, and zero panics. The zero value
// holds 0 over the common denominator 1; NewAcc returns a pointer to one.
// An Acc that may have spilled is copied with Set or Clone, not by
// assignment, which would share its big.Rat.
type Acc struct {
	num   int64    // the value is num/den while spill is nil
	den   int64    // the common denominator; 0 in the zero value, read as 1
	spill *big.Rat // the value once int64 overflowed; nil until then
}

// NewAcc returns an accumulator holding zero.
func NewAcc() *Acc { return &Acc{} }

// denom returns the common denominator.
func (a *Acc) denom() int64 {
	if a.den == 0 {
		return 1
	}
	return a.den
}

// bigOf returns the value as a big.Rat: the spilled value itself, or
// num/den converted into tmp.
func (a *Acc) bigOf(tmp *big.Rat) *big.Rat {
	if a.spill != nil {
		return a.spill
	}
	return tmp.SetFrac64(a.num, a.denom())
}

// promote moves the value to math/big, where it stays.
func (a *Acc) promote() {
	if a.spill == nil {
		a.spill = new(big.Rat).SetFrac64(a.num, a.denom())
	}
}

// cover widens den to a multiple of d and reports whether the value is
// still on the int64 path with d dividing den.
func (a *Acc) cover(d int64) bool {
	if a.spill != nil || d <= 0 {
		return false
	}
	den := a.denom()
	if den%d == 0 {
		a.den = den
		return true
	}
	if l, ok := LCMOK(den, d); ok {
		if n, ok := mulOK(a.num, l/den); ok {
			a.num, a.den = n, l
			return true
		}
	}
	a.promote()
	return false
}

// Over widens the common denominator to a multiple of d, keeping the
// value, and returns a for chaining.
func (a *Acc) Over(d int64) *Acc {
	_ = a.cover(d)
	return a
}

// AddFrac adds n/d and returns a for chaining.
func (a *Acc) AddFrac(n, d int64) *Acc {
	if a.cover(d) {
		if v, ok := mulOK(n, a.den/d); ok {
			if s, ok := addOK(a.num, v); ok {
				a.num = s
				return a
			}
		}
	}
	a.promote()
	var t big.Rat
	a.spill.Add(a.spill, t.SetFrac64(n, d))
	return a
}

// SubFrac subtracts n/d and returns a for chaining.
func (a *Acc) SubFrac(n, d int64) *Acc {
	if n != math.MinInt64 {
		return a.AddFrac(-n, d)
	}
	a.promote()
	var t big.Rat
	a.spill.Sub(a.spill, t.SetFrac64(n, d))
	return a
}

// Add adds r to the accumulator and returns it for chaining.
func (a *Acc) Add(r Rat) *Acc {
	r = r.normalized()
	return a.AddFrac(r.num, r.den)
}

// Sub subtracts r from the accumulator and returns it for chaining.
func (a *Acc) Sub(r Rat) *Acc {
	r = r.normalized()
	return a.SubFrac(r.num, r.den)
}

// AddAcc adds another accumulator's value.
func (a *Acc) AddAcc(b *Acc) *Acc {
	if b.spill == nil {
		return a.AddFrac(b.num, b.denom())
	}
	a.promote()
	a.spill.Add(a.spill, b.spill)
	return a
}

// SubAcc subtracts another accumulator's value.
func (a *Acc) SubAcc(b *Acc) *Acc {
	if b.spill == nil {
		return a.SubFrac(b.num, b.denom())
	}
	a.promote()
	a.spill.Sub(a.spill, b.spill)
	return a
}

// MulRat multiplies the accumulator by r, leaving the product in lowest
// terms, and returns it for chaining.
func (a *Acc) MulRat(r Rat) *Acc {
	if a.spill == nil {
		if p, ok := mulChecked(Rat{a.num, a.denom()}, r); ok {
			a.num, a.den = p.num, p.den
			return a
		}
		a.promote()
	}
	r = r.normalized()
	var t big.Rat
	a.spill.Mul(a.spill, t.SetFrac64(r.num, r.den))
	return a
}

// SetInt sets the accumulator to the integer n and returns it. It keeps
// the common denominator while n over it fits in int64, and otherwise
// starts again from n/1 on the int64 path.
func (a *Acc) SetInt(n int64) *Acc {
	if a.spill == nil {
		if v, ok := mulOK(n, a.denom()); ok {
			a.num = v
			return a
		}
	}
	a.num, a.den, a.spill = n, 1, nil
	return a
}

// Set copies another accumulator's value and common denominator.
func (a *Acc) Set(b *Acc) *Acc {
	if a == b {
		return a
	}
	a.num, a.den, a.spill = b.num, b.den, nil
	if b.spill != nil {
		a.spill = new(big.Rat).Set(b.spill)
	}
	return a
}

// Clone returns an independent copy.
func (a *Acc) Clone() *Acc { return NewAcc().Set(a) }

// CmpAcc compares two accumulated values: −1 if a < b, 0 if equal, +1 if
// a > b. Over the same common denominator it is one integer compare.
func (a *Acc) CmpAcc(b *Acc) int {
	if a.spill == nil && b.spill == nil {
		if a.den == b.den {
			return cmp.Compare(a.num, b.num)
		}
		return Rat{a.num, a.denom()}.Cmp(Rat{b.num, b.denom()})
	}
	var ta, tb big.Rat
	return a.bigOf(&ta).Cmp(b.bigOf(&tb))
}

// CmpFrac compares the accumulated value with n/d: −1 if less, 0 if
// equal, +1 if greater.
func (a *Acc) CmpFrac(n, d int64) int {
	if a.spill == nil && d > 0 {
		return Rat{a.num, a.denom()}.Cmp(Rat{n, d})
	}
	var ta, tb big.Rat
	return a.bigOf(&ta).Cmp(tb.SetFrac64(n, d))
}

// Cmp compares the accumulated value with r: −1 if less, 0 if equal, +1 if
// greater.
func (a *Acc) Cmp(r Rat) int {
	r = r.normalized()
	return a.CmpFrac(r.num, r.den)
}

// CmpInt compares the accumulated value with the integer n.
func (a *Acc) CmpInt(n int64) int { return a.Cmp(FromInt(n)) }

// Sign returns the sign of the accumulated value.
func (a *Acc) Sign() int {
	if a.spill == nil {
		return cmp.Compare(a.num, 0)
	}
	return a.spill.Sign()
}

// Ceil returns ⌈value⌉. It panics if the result does not fit in int64
// (impossible for task-weight sums, which are bounded by the task count).
func (a *Acc) Ceil() int64 {
	if a.spill == nil {
		return Rat{a.num, a.denom()}.Ceil()
	}
	num := a.spill.Num()
	den := a.spill.Denom()
	var q, m big.Int
	q.QuoRem(num, den, &m)
	if m.Sign() != 0 && num.Sign() > 0 {
		q.Add(&q, big.NewInt(1))
	}
	if !q.IsInt64() {
		panic("rational: Acc.Ceil overflows int64")
	}
	return q.Int64()
}

// maxExactFloat is 2⁵³: every integer of at most this magnitude converts
// to float64 exactly.
const maxExactFloat = 1 << 53

// floatExact reports whether both components of r convert to float64
// exactly.
func floatExact(r Rat) bool {
	return -maxExactFloat <= r.num && r.num <= maxExactFloat && r.den <= maxExactFloat
}

// Float returns the nearest float64 for reporting. When both components,
// reduced if need be, convert to float64 exactly, one IEEE division is
// correctly rounded and so gives big.Rat.Float64's result; otherwise
// math/big rounds.
func (a *Acc) Float() float64 {
	if a.spill == nil {
		r := Rat{a.num, a.denom()}
		if !floatExact(r) {
			r = New(r.num, r.den)
		}
		if floatExact(r) {
			return quoFloat(r)
		}
	}
	var t big.Rat
	f, _ := a.bigOf(&t).Float64()
	return f
}

// String renders the exact value in lowest terms.
func (a *Acc) String() string {
	if a.spill == nil {
		return New(a.num, a.denom()).String()
	}
	return a.spill.RatString()
}

// Rat returns the value in lowest terms as an int64 Rat if it fits, with
// ok reporting whether it did.
func (a *Acc) Rat() (r Rat, ok bool) {
	if a.spill == nil {
		return New(a.num, a.denom()), true
	}
	if !a.spill.Num().IsInt64() || !a.spill.Denom().IsInt64() {
		return Zero(), false
	}
	// big.Rat is already in lowest terms with a positive denominator
	// (1 for zero).
	return Rat{a.spill.Num().Int64(), a.spill.Denom().Int64()}, true
}
