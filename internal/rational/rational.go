// Package rational implements exact arithmetic on rational numbers with
// int64 numerators and denominators.
//
// Pfair scheduling theory is stated in terms of exact task weights
// wt(T) = e/p and exact per-slot lags lag(T, t) = wt(T)·t − allocated(T, t).
// The correctness condition −1 < lag < 1 (Equation (1) of the paper) is a
// strict inequality on rationals; evaluating it in floating point can
// misclassify schedules whose lag touches the bound. Every lag and weight
// computation in this repository therefore uses this package.
//
// Values are kept in lowest terms with a positive denominator, so Rat is
// comparable with == and usable as a map key. Add and Mul reduce by gcd
// before multiplying so intermediates stay small; when an intermediate
// still overflows int64 they redo the operation exactly in math/big and
// convert back, so any result that fits int64 after reduction is returned
// exactly. Only a result that is out of int64 range even in lowest terms
// panics: long-horizon lag accumulations stay exact, and a panic signals a
// genuinely unrepresentable value rather than an unlucky intermediate.
//
// Acc holds sums across a whole task set, whose denominators can outgrow
// int64. It keeps an int64 numerator over a common denominator that only
// grows, so once that denominator covers the operands, as the lcm of a
// task set's periods does, it adds, subtracts and compares without a gcd
// or an allocation; the first operation that would overflow moves the
// value to math/big, where it stays exact. Which representation is live
// never shows in a result.
package rational

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Rat is an exact rational number. The zero value is 0/1, i.e. zero.
type Rat struct {
	num int64 // may be negative; zero iff the value is zero
	den int64 // always > 0; 1 when num == 0
}

// New returns the rational num/den in lowest terms. It panics if den == 0,
// or if the reduced value does not fit: its denominator is 2⁶³, or it is
// +2⁶³ (math.MinInt64 over −1). Every int64 input, math.MinInt64
// included, is otherwise taken.
//
//pfair:hotpath
func New(num, den int64) Rat {
	if den == 0 {
		panic("rational: zero denominator")
	}
	if num == 0 {
		return Rat{0, 1}
	}
	// Reduce the magnitudes in uint64, where 2⁶³ fits, then sign.
	n, d := mag(num), mag(den)
	if g := gcd(n, d); g > 1 {
		n, d = n/g, d/g
	}
	neg := (num < 0) != (den < 0)
	if d > math.MaxInt64 || (!neg && n > math.MaxInt64) {
		panic("rational: value out of int64 range after reduction")
	}
	if neg {
		n = -n // two's complement: a magnitude of 2⁶³ becomes math.MinInt64
	}
	return Rat{int64(n), int64(d)}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Zero returns the rational 0.
func Zero() Rat { return Rat{0, 1} }

// One returns the rational 1.
func One() Rat { return Rat{1, 1} }

// Num returns the numerator in lowest terms (sign carried here).
//
//pfair:hotpath
func (r Rat) Num() int64 { return r.normalized().num }

// Den returns the denominator in lowest terms (always positive).
//
//pfair:hotpath
func (r Rat) Den() int64 { return r.normalized().den }

// normalized maps the zero value Rat{} to the canonical 0/1.
//
//pfair:hotpath
func (r Rat) normalized() Rat {
	if r.den == 0 {
		return Rat{0, 1}
	}
	return r
}

// Add returns r + s.
func (r Rat) Add(s Rat) Rat {
	if sum, ok := addChecked(r, s); ok {
		return sum
	}
	return bigFallback(r.normalized(), s.normalized(), (*big.Rat).Add)
}

// addChecked returns r + s computed in int64, or ok=false when an
// intermediate overflows.
func addChecked(r, s Rat) (Rat, bool) {
	r, s = r.normalized(), s.normalized()
	// r.num/r.den + s.num/s.den over the lcm denominator.
	rd, sd := r.den, s.den
	if g := int64(gcd(uint64(rd), uint64(sd))); g > 1 {
		rd, sd = rd/g, sd/g
	}
	ld, ok1 := mulOK(rd, s.den)
	a, ok2 := mulOK(r.num, sd)
	b, ok3 := mulOK(s.num, rd)
	if !ok1 || !ok2 || !ok3 {
		return Rat{}, false
	}
	sum, ok := addOK(a, b)
	if !ok {
		return Rat{}, false
	}
	return New(sum, ld), true
}

// subChecked returns r − s like addChecked.
func subChecked(r, s Rat) (Rat, bool) {
	s = s.normalized()
	if s.num == math.MinInt64 {
		return Rat{}, false
	}
	return addChecked(r, Rat{-s.num, s.den})
}

// Sub returns r − s.
func (r Rat) Sub(s Rat) Rat {
	if d, ok := subChecked(r, s); ok {
		return d
	}
	return bigFallback(r.normalized(), s.normalized(), (*big.Rat).Sub)
}

// Neg returns −r. Negating a numerator of math.MinInt64 gives 2⁶³, which
// int64 cannot hold, so that case panics like any unrepresentable result.
func (r Rat) Neg() Rat {
	r = r.normalized()
	if r.num == math.MinInt64 {
		return bigFallback(Zero(), r, (*big.Rat).Sub)
	}
	return Rat{-r.num, r.den}
}

// Mul returns r · s.
func (r Rat) Mul(s Rat) Rat {
	if p, ok := mulChecked(r, s); ok {
		return p
	}
	return bigFallback(r.normalized(), s.normalized(), (*big.Rat).Mul)
}

// mulChecked returns r · s computed in int64, or ok=false when an
// intermediate overflows.
func mulChecked(r, s Rat) (Rat, bool) {
	r, s = r.normalized(), s.normalized()
	// Cross-reduce before multiplying to keep intermediates small.
	g1 := int64(gcd(mag(r.num), uint64(s.den)))
	g2 := int64(gcd(mag(s.num), uint64(r.den)))
	num, ok1 := mulOK(r.num/g1, s.num/g2)
	den, ok2 := mulOK(r.den/g2, s.den/g1)
	if !ok1 || !ok2 {
		return Rat{}, false
	}
	return New(num, den), true
}

// Div returns r / s. It panics if s is zero.
func (r Rat) Div(s Rat) Rat {
	s = s.normalized()
	if s.num == 0 {
		panic("rational: division by zero")
	}
	if s.num == math.MinInt64 {
		// The reciprocal's denominator would be 2⁶³.
		return bigFallback(r.normalized(), s, (*big.Rat).Quo)
	}
	return r.Mul(Rat{s.den, s.num}.canon())
}

// canon restores the positive-denominator invariant after an inversion.
func (r Rat) canon() Rat {
	if r.den < 0 {
		return Rat{-r.num, -r.den}
	}
	return r
}

// Cmp returns −1, 0, or +1 according to whether r < s, r == s, or r > s.
//
//pfair:hotpath
func (r Rat) Cmp(s Rat) int {
	r, s = r.normalized(), s.normalized()
	// Compare r.num·s.den with s.num·r.den using 128-bit products so the
	// comparison itself cannot overflow.
	lhsHi, lhsLo := mul128(r.num, s.den)
	rhsHi, rhsLo := mul128(s.num, r.den)
	switch {
	case lhsHi < rhsHi:
		return -1
	case lhsHi > rhsHi:
		return 1
	case lhsLo < rhsLo:
		return -1
	case lhsLo > rhsLo:
		return 1
	}
	return 0
}

// Less reports whether r < s.
//
//pfair:hotpath
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// Sign returns −1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	r = r.normalized()
	switch {
	case r.num < 0:
		return -1
	case r.num > 0:
		return 1
	}
	return 0
}

// IsZero reports whether r is zero.
func (r Rat) IsZero() bool { return r.normalized().num == 0 }

// Floor returns ⌊r⌋.
func (r Rat) Floor() int64 {
	r = r.normalized()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num < 0 {
		q--
	}
	return q
}

// Ceil returns ⌈r⌉.
func (r Rat) Ceil() int64 {
	r = r.normalized()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num > 0 {
		q++
	}
	return q
}

// Float returns the nearest float64 (for reporting only — never used in
// scheduling decisions).
func (r Rat) Float() float64 { return quoFloat(r.normalized()) }

// quoFloat is the one float conversion behind both reporting bridges,
// Rat.Float and Acc.Float's int64 path: num/den in one IEEE division.
func quoFloat(r Rat) float64 {
	//pfair:allowfloat the sanctioned reporting bridge itself; ratfloat polices its callers
	return float64(r.num) / float64(r.den)
}

// String renders r as "num/den", or just "num" for integers.
func (r Rat) String() string {
	r = r.normalized()
	if r.den == 1 {
		return fmt.Sprintf("%d", r.num)
	}
	return fmt.Sprintf("%d/%d", r.num, r.den)
}

// CeilDiv returns ⌈a/b⌉ for b > 0, exact for all int64 a.
//
//pfair:hotpath
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("rational: CeilDiv requires b > 0")
	}
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}

// LCM returns the least common multiple of |a| and |b|. It panics on
// overflow.
func LCM(a, b int64) int64 {
	l, ok := LCMOK(a, b)
	if !ok {
		panic("rational: int64 overflow in LCM")
	}
	return l
}

// LCMOK is LCM returning ok=false instead of panicking on int64 overflow,
// for callers (CLIs, admission paths) that must report the error rather
// than crash.
func LCMOK(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	ua, ub := mag(a), mag(b)
	hi, lo := bits.Mul64(ua/gcd(ua, ub), ub)
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}

// mag returns |a| as a uint64, where |math.MinInt64| = 2⁶³ fits.
//
//pfair:hotpath
func mag(a int64) uint64 {
	if a < 0 {
		return -uint64(a)
	}
	return uint64(a)
}

// gcd returns the greatest common divisor of a and b (gcd(0, 0) = 0) by
// Stein's binary algorithm: shifts and subtractions, no division. The loop
// keeps the smaller odd value and the magnitude of the difference, both
// picked without a branch; every value is below 2⁶³ once the factors of
// two are out, so the difference's sign bit tells which was larger.
//
//pfair:hotpath
func gcd(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return a | b
	}
	k := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		d := b - a
		a = min(a, b)
		if int64(d) < 0 {
			d = -d
		}
		b = d
	}
	return a << k
}

func addOK(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mulOK returns a·b, or ok=false when it overflows int64: the exact
// 128-bit product fits exactly when its high word is the sign extension
// of its low word.
func mulOK(a, b int64) (int64, bool) {
	hi, lo := mul128(a, b)
	if p := int64(lo); hi == p>>63 {
		return p, true
	}
	return 0, false
}

// bigFallback redoes a binary operation exactly in math/big when the int64
// fast path overflowed. big.Rat keeps results in lowest terms with a
// positive denominator, so a result whose reduced components fit int64
// converts back losslessly; anything larger is genuinely unrepresentable.
func bigFallback(r, s Rat, op func(z, x, y *big.Rat) *big.Rat) Rat {
	var x, y big.Rat
	x.SetFrac64(r.num, r.den)
	y.SetFrac64(s.num, s.den)
	op(&x, &x, &y)
	if !x.Num().IsInt64() || !x.Denom().IsInt64() {
		panic(fmt.Sprintf("rational: %s/%s out of int64 range after reduction", x.Num(), x.Denom()))
	}
	n, d := x.Num().Int64(), x.Denom().Int64()
	if n == 0 {
		return Rat{0, 1}
	}
	return Rat{n, d}
}

// mul128 returns the signed 128-bit product a·b as (hi, lo) in two's
// complement, suitable for lexicographic comparison. The unsigned product
// of the two's complement bit patterns has the right low word; a negative
// operand x stands for x + 2⁶⁴ there, so the high word is corrected by
// subtracting the other operand once for each.
//
//pfair:hotpath
func mul128(a, b int64) (hi int64, lo uint64) {
	h, l := bits.Mul64(uint64(a), uint64(b))
	h -= uint64(a>>63) & uint64(b)
	h -= uint64(b>>63) & uint64(a)
	return int64(h), l
}
