package rational

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewReduces(t *testing.T) {
	cases := []struct {
		num, den         int64
		wantNum, wantDen int64
	}{
		{2, 4, 1, 2},
		{8, 11, 8, 11},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 5, 0, 1},
		{0, -5, 0, 1},
		{6, 3, 2, 1},
		{45, 45, 1, 1},
	}
	for _, c := range cases {
		r := New(c.num, c.den)
		if r.Num() != c.wantNum || r.Den() != c.wantDen {
			t.Errorf("New(%d,%d) = %d/%d, want %d/%d", c.num, c.den, r.Num(), r.Den(), c.wantNum, c.wantDen)
		}
	}
}

func TestNewPanicsOnZeroDen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1, 0) did not panic")
		}
	}()
	New(1, 0)
}

func TestZeroValueIsZero(t *testing.T) {
	var r Rat
	if !r.IsZero() {
		t.Error("zero value Rat is not zero")
	}
	if got := r.Add(New(1, 2)); got.Cmp(New(1, 2)) != 0 {
		t.Errorf("0 + 1/2 = %v", got)
	}
	if r.String() != "0" {
		t.Errorf("zero value String = %q", r.String())
	}
}

func TestArithmetic(t *testing.T) {
	half := New(1, 2)
	third := New(1, 3)
	if got := half.Add(third); got.Cmp(New(5, 6)) != 0 {
		t.Errorf("1/2 + 1/3 = %v, want 5/6", got)
	}
	if got := half.Sub(third); got.Cmp(New(1, 6)) != 0 {
		t.Errorf("1/2 - 1/3 = %v, want 1/6", got)
	}
	if got := half.Mul(third); got.Cmp(New(1, 6)) != 0 {
		t.Errorf("1/2 * 1/3 = %v, want 1/6", got)
	}
	if got := half.Div(third); got.Cmp(New(3, 2)) != 0 {
		t.Errorf("(1/2) / (1/3) = %v, want 3/2", got)
	}
	if got := half.Neg(); got.Cmp(New(-1, 2)) != 0 {
		t.Errorf("-(1/2) = %v", got)
	}
	if got := third.Mul(FromInt(6)); got.Cmp(FromInt(2)) != 0 {
		t.Errorf("1/3 * 6 = %v, want 2", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("division by zero did not panic")
		}
	}()
	One().Div(Zero())
}

func TestCmp(t *testing.T) {
	cases := []struct {
		a, b Rat
		want int
	}{
		{New(1, 2), New(1, 3), 1},
		{New(1, 3), New(1, 2), -1},
		{New(2, 4), New(1, 2), 0},
		{New(-1, 2), New(1, 2), -1},
		{New(-1, 2), New(-1, 3), -1},
		{Zero(), Zero(), 0},
		{New(8, 11), New(3, 4), -1}, // 0.7272… < 0.75
		{FromInt(math.MaxInt64 / 2), FromInt(math.MaxInt64/2 - 1), 1},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCmpNoOverflow uses denominators near the int64 limit where a naive
// cross-multiplication would overflow.
func TestCmpNoOverflow(t *testing.T) {
	big := int64(3037000499) // ~sqrt(MaxInt64)
	a := New(big, big+1)
	b := New(big-1, big)
	// a = big/(big+1), b = (big-1)/big; a - b = 1/(big(big+1)) > 0.
	if got := a.Cmp(b); got != 1 {
		t.Errorf("Cmp near overflow = %d, want 1", got)
	}
	if got := b.Cmp(a); got != -1 {
		t.Errorf("reverse Cmp near overflow = %d, want -1", got)
	}
}

func TestFloorCeil(t *testing.T) {
	cases := []struct {
		r           Rat
		floor, ceil int64
	}{
		{New(7, 2), 3, 4},
		{New(-7, 2), -4, -3},
		{New(6, 2), 3, 3},
		{New(-6, 2), -3, -3},
		{Zero(), 0, 0},
		{New(1, 1000), 0, 1},
		{New(-1, 1000), -1, 0},
	}
	for _, c := range cases {
		if got := c.r.Floor(); got != c.floor {
			t.Errorf("Floor(%v) = %d, want %d", c.r, got, c.floor)
		}
		if got := c.r.Ceil(); got != c.ceil {
			t.Errorf("Ceil(%v) = %d, want %d", c.r, got, c.ceil)
		}
	}
}

func TestFloorCeilDiv(t *testing.T) {
	for a := int64(-20); a <= 20; a++ {
		for b := int64(1); b <= 7; b++ {
			wantF := int64(math.Floor(float64(a) / float64(b)))
			wantC := int64(math.Ceil(float64(a) / float64(b)))
			if got := New(a, b).Floor(); got != wantF {
				t.Errorf("Floor(%d/%d) = %d, want %d", a, b, got, wantF)
			}
			if got := CeilDiv(a, b); got != wantC {
				t.Errorf("CeilDiv(%d,%d) = %d, want %d", a, b, got, wantC)
			}
		}
	}
}

func TestGCDLCM(t *testing.T) {
	if got := LCM(4, 6); got != 12 {
		t.Errorf("LCM(4,6) = %d", got)
	}
	if got := LCM(0, 6); got != 0 {
		t.Errorf("LCM(0,6) = %d", got)
	}
	if got := LCM(7, 13); got != 91 {
		t.Errorf("LCM(7,13) = %d", got)
	}
}

func TestString(t *testing.T) {
	if s := New(8, 11).String(); s != "8/11" {
		t.Errorf("String = %q", s)
	}
	if s := New(4, 2).String(); s != "2" {
		t.Errorf("String = %q", s)
	}
	if s := New(-1, 2).String(); s != "-1/2" {
		t.Errorf("String = %q", s)
	}
}

// randRat generates rationals with moderate components so quick-check
// arithmetic cannot overflow even after a few combined operations.
func randRat(r *rand.Rand) Rat {
	num := r.Int63n(2000001) - 1000000
	den := r.Int63n(1000000) + 1
	return New(num, den)
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randRat(r), randRat(r)
		return a.Add(b).Cmp(b.Add(a)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAddAssociative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randRat(r), randRat(r), randRat(r)
		return a.Add(b).Add(c).Cmp(a.Add(b.Add(c))) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMulDistributes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randRat(r), randRat(r), randRat(r)
		return a.Mul(b.Add(c)).Cmp(a.Mul(b).Add(a.Mul(c))) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randRat(r), randRat(r)
		return a.Add(b).Sub(b).Cmp(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCmpMatchesFloat(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randRat(r), randRat(r)
		fa, fb := a.Float(), b.Float()
		if math.Abs(fa-fb) < 1e-9 {
			return true // too close for float comparison to be trustworthy
		}
		want := 1
		if fa < fb {
			want = -1
		}
		return a.Cmp(b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFloorCeilConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randRat(r)
		fl, ce := a.Floor(), a.Ceil()
		if a.Den() == 1 {
			return fl == ce && fl == a.Num()
		}
		return ce == fl+1 && FromInt(fl).Less(a) && a.Less(FromInt(ce))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDivMulRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randRat(r), randRat(r)
		if b.IsZero() {
			return true
		}
		return a.Div(b).Mul(b).Cmp(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	x, y := New(8, 11), New(7, 13)
	for i := 0; i < b.N; i++ {
		_ = x.Add(y)
	}
}

func BenchmarkMul(b *testing.B) {
	x, y := New(8, 11), New(7, 13)
	for i := 0; i < b.N; i++ {
		_ = x.Mul(y)
	}
}

func BenchmarkCmp(b *testing.B) {
	x, y := New(8, 11), New(7, 13)
	for i := 0; i < b.N; i++ {
		_ = x.Cmp(y)
	}
}

// TestAddBigFallbackAtPriorPanicBoundary: before the math/big fallback,
// Add panicked whenever an int64 intermediate overflowed, even when the
// reduced result fits comfortably. (2^62+1)/2 + (2^62+1)/2 = 2^62+1 is
// exactly such a case: the numerator sum overflows int64 but the result is
// a plain integer. Long-horizon lag accumulations in fuzz runs hit this.
func TestAddBigFallbackAtPriorPanicBoundary(t *testing.T) {
	const big62 = int64(1)<<62 + 1 // odd, so num/den stay coprime
	a := New(big62, 2)
	got := a.Add(a)
	if want := FromInt(big62); got.Cmp(want) != 0 {
		t.Fatalf("Add fallback: got %v, want %v", got, want)
	}
	// Subtraction through the same path: the intermediates overflow but
	// the difference is zero.
	if d := a.Sub(a); !d.IsZero() {
		t.Fatalf("Sub fallback: got %v, want 0", d)
	}
	// Denominator-side fallback: 1/(3·2^61) + 1/2^61 = 4/(3·2^61). The lcm
	// intermediate a·b overflows but the reduced result fits.
	x := New(1, 3*(int64(1)<<61))
	y := New(1, int64(1)<<61)
	if got, want := x.Add(y), New(4, 3*(int64(1)<<61)); got.Cmp(want) != 0 {
		t.Fatalf("denominator fallback: got %v, want %v", got, want)
	}
}

// TestMulBigFallback: cross-reduction leaves Mul's result in lowest terms,
// so an overflow there is genuinely unrepresentable — the fallback must
// still panic, now with the precise reduced value in the message.
func TestMulBigFallback(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul of an unrepresentable product did not panic")
		}
	}()
	New(int64(1)<<62, 3).Mul(New(int64(1)<<62, 5))
}

// TestAddStillPanicsWhenTrulyOutOfRange: a sum whose lowest-terms
// denominator exceeds int64 must still refuse.
func TestAddStillPanicsWhenTrulyOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add of an unrepresentable sum did not panic")
		}
	}()
	// 1/(2^40) + 1/(3^25): denominators coprime, lcm ≈ 9.3·10^23.
	p3 := int64(1)
	for i := 0; i < 25; i++ {
		p3 *= 3
	}
	New(1, int64(1)<<40).Add(New(1, p3))
}

// TestMinInt64Operands: a numerator of math.MinInt64 has no int64
// magnitude, so products and sums that meet it must go through math/big
// rather than wrap.
func TestMinInt64Operands(t *testing.T) {
	min := FromInt(math.MinInt64)
	if got := min.Add(FromInt(1)); got.Num() != math.MinInt64+1 || got.Den() != 1 {
		t.Errorf("MinInt64 + 1 = %v", got)
	}
	if got := FromInt(math.MinInt64 + 1).Sub(FromInt(1)); got.Num() != math.MinInt64 || got.Den() != 1 {
		t.Errorf("(MinInt64+1) − 1 = %v", got)
	}
	if got := min.Mul(New(1, 2)); got.Num() != math.MinInt64/2 || got.Den() != 1 {
		t.Errorf("MinInt64 · 1/2 = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinInt64 · −1 = 2⁶³ did not panic as out of range")
		}
	}()
	min.Mul(FromInt(-1))
}
