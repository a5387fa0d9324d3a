package rational

import "math/big"

// Acc is an exact rational accumulator of unbounded precision.
//
// Rat deliberately restricts itself to int64 components, which is safe for
// per-task quantities (a task's lags and window bounds have denominators
// dividing its period). Sums across a task *set* — the Σ wt(T) of the
// feasibility condition (2) — have denominators near the lcm of all
// periods, which overflows int64 for realistic sets of hundreds of tasks
// with co-prime periods.
//
// Acc therefore has two representations. While its value fits, it is an
// int64 Rat, and every operation runs the checked int64 arithmetic of
// Rat (overflow-detecting products and sums, 128-bit comparisons) without
// allocating. The first operation whose int64 intermediates would
// overflow moves the value to a math/big Rat, where it stays, exact, until
// SetInt or Set replaces it. Results never depend on the representation:
// every method returns what the same sequence of math/big operations
// would, including Float, which matches big.Rat.Float64 bit for bit.
//
// The zero value holds zero; NewAcc returns a pointer to one.
type Acc struct {
	r     Rat      // the value while spill is nil
	spill *big.Rat // the value once int64 overflowed; nil until then
}

// NewAcc returns an accumulator holding zero.
func NewAcc() *Acc { return &Acc{} }

// setBig stores r into z and returns z.
func setBig(z *big.Rat, r Rat) *big.Rat {
	r = r.normalized()
	return z.SetFrac64(r.num, r.den)
}

// bigOf returns the value as a big.Rat: the spilled value itself, or r
// converted into tmp.
func (a *Acc) bigOf(tmp *big.Rat) *big.Rat {
	if a.spill != nil {
		return a.spill
	}
	return setBig(tmp, a.r)
}

// promote moves the value to math/big, where it stays.
func (a *Acc) promote() {
	if a.spill == nil {
		a.spill = setBig(new(big.Rat), a.r)
	}
}

// Add adds r to the accumulator and returns it for chaining.
func (a *Acc) Add(r Rat) *Acc {
	if a.spill == nil {
		if s, ok := addChecked(a.r, r); ok {
			a.r = s
			return a
		}
		a.promote()
	}
	var t big.Rat
	a.spill.Add(a.spill, setBig(&t, r))
	return a
}

// Sub subtracts r from the accumulator and returns it for chaining.
func (a *Acc) Sub(r Rat) *Acc {
	if a.spill == nil {
		if s, ok := subChecked(a.r, r); ok {
			a.r = s
			return a
		}
		a.promote()
	}
	var t big.Rat
	a.spill.Sub(a.spill, setBig(&t, r))
	return a
}

// AddAcc adds another accumulator's value.
func (a *Acc) AddAcc(b *Acc) *Acc {
	if b.spill == nil {
		return a.Add(b.r)
	}
	a.promote()
	a.spill.Add(a.spill, b.spill)
	return a
}

// SubAcc subtracts another accumulator's value.
func (a *Acc) SubAcc(b *Acc) *Acc {
	if b.spill == nil {
		return a.Sub(b.r)
	}
	a.promote()
	a.spill.Sub(a.spill, b.spill)
	return a
}

// MulRat multiplies the accumulator by r and returns it for chaining.
func (a *Acc) MulRat(r Rat) *Acc {
	if a.spill == nil {
		if p, ok := mulChecked(a.r, r); ok {
			a.r = p
			return a
		}
		a.promote()
	}
	var t big.Rat
	a.spill.Mul(a.spill, setBig(&t, r))
	return a
}

// SetInt sets the accumulator to the integer n and returns it.
func (a *Acc) SetInt(n int64) *Acc {
	a.r, a.spill = FromInt(n), nil
	return a
}

// Set copies another accumulator's value.
func (a *Acc) Set(b *Acc) *Acc {
	a.r = b.r
	if b.spill == nil {
		a.spill = nil
	} else {
		a.spill = new(big.Rat).Set(b.spill)
	}
	return a
}

// CmpAcc compares two accumulated values: −1 if a < b, 0 if equal, +1 if
// a > b.
func (a *Acc) CmpAcc(b *Acc) int {
	if a.spill == nil && b.spill == nil {
		return a.r.Cmp(b.r)
	}
	var ta, tb big.Rat
	return a.bigOf(&ta).Cmp(b.bigOf(&tb))
}

// Clone returns an independent copy.
func (a *Acc) Clone() *Acc { return NewAcc().Set(a) }

// Cmp compares the accumulated value with r: −1 if less, 0 if equal, +1 if
// greater.
func (a *Acc) Cmp(r Rat) int {
	if a.spill == nil {
		return a.r.Cmp(r)
	}
	var t big.Rat
	return a.spill.Cmp(setBig(&t, r))
}

// CmpInt compares the accumulated value with the integer n.
func (a *Acc) CmpInt(n int64) int { return a.Cmp(FromInt(n)) }

// Sign returns the sign of the accumulated value.
func (a *Acc) Sign() int {
	if a.spill == nil {
		return a.r.Sign()
	}
	return a.spill.Sign()
}

// Ceil returns ⌈value⌉. It panics if the result does not fit in int64
// (impossible for task-weight sums, which are bounded by the task count).
func (a *Acc) Ceil() int64 {
	if a.spill == nil {
		return a.r.Ceil()
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

// Float returns the nearest float64 for reporting. When both components
// convert to float64 exactly, one IEEE division is correctly rounded and
// so gives big.Rat.Float64's result; otherwise math/big rounds.
func (a *Acc) Float() float64 {
	if a.spill == nil {
		r := a.r.normalized()
		if -maxExactFloat <= r.num && r.num <= maxExactFloat && r.den <= maxExactFloat {
			return quoFloat(r)
		}
	}
	var t big.Rat
	f, _ := a.bigOf(&t).Float64()
	return f
}

// String renders the exact value.
func (a *Acc) String() string {
	if a.spill == nil {
		return a.r.String()
	}
	return a.spill.RatString()
}

// Rat returns the value as an int64 Rat if it fits, with ok reporting
// whether it did.
func (a *Acc) Rat() (r Rat, ok bool) {
	if a.spill == nil {
		return a.r.normalized(), true
	}
	if !a.spill.Num().IsInt64() || !a.spill.Denom().IsInt64() {
		return Zero(), false
	}
	// big.Rat is already in lowest terms with a positive denominator
	// (1 for zero).
	return Rat{a.spill.Num().Int64(), a.spill.Denom().Int64()}, true
}
