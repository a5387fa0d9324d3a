package rational

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// mustPanic reports whether f panics.
func mustPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestKernelEdgeCases pins the answers at math.MinInt64, where a
// magnitude needs 2⁶³ and a divide-based overflow test is blind to one
// argument order.
func TestKernelEdgeCases(t *testing.T) {
	const min = math.MinInt64
	news := []struct {
		num, den, wantNum, wantDen int64
	}{
		{min, 6, -(1 << 62), 3},
		{min, 1, min, 1},
		{min, -2, 1 << 62, 1},
		{min, min, 1, 1},
		{6, min, -3, 1 << 62},
		{-6, min, 3, 1 << 62},
		{math.MaxInt64, min + 1, -1, 1},
	}
	for _, c := range news {
		r := New(c.num, c.den)
		if r.Num() != c.wantNum || r.Den() != c.wantDen {
			t.Errorf("New(%d, %d) = %d/%d, want %d/%d", c.num, c.den, r.Num(), r.Den(), c.wantNum, c.wantDen)
		}
	}
	for _, c := range [][2]int64{{min, -1}, {1, min}, {-3, min}} {
		if !mustPanic(func() { New(c[0], c[1]) }) {
			t.Errorf("New(%d, %d) did not panic; the value does not fit int64", c[0], c[1])
		}
	}

	for _, c := range [][2]int64{{min, -1}, {-1, min}, {min, 2}, {2, min}, {1 << 32, 1 << 31}} {
		if p, ok := mulOK(c[0], c[1]); ok {
			t.Errorf("mulOK(%d, %d) = %d, true; want overflow", c[0], c[1], p)
		}
	}
	for _, c := range [][3]int64{{min, 1, min}, {1, min, min}, {-(1 << 31), 1 << 32, min}, {math.MaxInt64, -1, -math.MaxInt64}} {
		if p, ok := mulOK(c[0], c[1]); !ok || p != c[2] {
			t.Errorf("mulOK(%d, %d) = %d, %v; want %d, true", c[0], c[1], p, ok, c[2])
		}
	}

	if l, ok := LCMOK(min, 2); ok {
		t.Errorf("LCMOK(MinInt64, 2) = %d, true; want overflow (2⁶³)", l)
	}
	if l, ok := LCMOK(-(1 << 62), 2); !ok || l != 1<<62 {
		t.Errorf("LCMOK(-2⁶², 2) = %d, %v; want 2⁶², true", l, ok)
	}

	// Negating, subtracting or dividing by a MinInt64 numerator needs
	// 2⁶³ on the way; each answer is exact or an out-of-range panic.
	m := FromInt(min)
	if got := FromInt(-1).Sub(m); got.Cmp(FromInt(math.MaxInt64)) != 0 {
		t.Errorf("−1 − MinInt64 = %v, want MaxInt64", got)
	}
	if got := FromInt(-2).Div(m); got.Cmp(New(1, 1<<62)) != 0 {
		t.Errorf("−2 / MinInt64 = %v, want 1/2⁶²", got)
	}
	if !mustPanic(func() { m.Neg() }) {
		t.Error("−MinInt64 did not panic")
	}
	if !mustPanic(func() { Zero().Sub(m) }) {
		t.Error("0 − MinInt64 did not panic")
	}
}

// kernelOperands are the inputs the kernel property test pairs up: 0, ±1,
// the int64 limits, every ±2^k, their neighbours, and random values of
// every bit length.
func kernelOperands() []int64 {
	vs := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 3, -3, 6, 1000003}
	for k := 1; k < 63; k++ {
		vs = append(vs, 1<<k, -(1 << k), 1<<k+1, 1<<k-1, -(1<<k)-1)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		v := r.Int63() >> r.Intn(63)
		if r.Intn(2) == 0 {
			v = -v
		}
		vs = append(vs, v)
	}
	return vs
}

// TestKernelMatchesBig holds gcd, mulOK, mul128 and New to math/big on
// every pair of kernelOperands.
func TestKernelMatchesBig(t *testing.T) {
	vs := kernelOperands()
	minInt, maxInt := big.NewInt(math.MinInt64), big.NewInt(math.MaxInt64)
	var ba, bb, want, hi, lo big.Int
	for _, a := range vs {
		for _, b := range vs {
			ba.SetInt64(a)
			bb.SetInt64(b)

			want.GCD(nil, nil, new(big.Int).Abs(&ba), new(big.Int).Abs(&bb))
			if got := gcd(mag(a), mag(b)); new(big.Int).SetUint64(got).Cmp(&want) != 0 {
				t.Fatalf("gcd(|%d|, |%d|) = %d, want %v", a, b, got, &want)
			}

			want.Mul(&ba, &bb)
			fits := want.Cmp(minInt) >= 0 && want.Cmp(maxInt) <= 0
			if p, ok := mulOK(a, b); ok != fits || (ok && p != want.Int64()) {
				t.Fatalf("mulOK(%d, %d) = %d, %v; product %v", a, b, p, ok, &want)
			}
			h, l := mul128(a, b)
			hi.Lsh(big.NewInt(h), 64)
			lo.SetUint64(l)
			if hi.Add(&hi, &lo).Cmp(&want) != 0 {
				t.Fatalf("mul128(%d, %d) = (%d, %#x), product %v", a, b, h, l, &want)
			}

			if b == 0 {
				continue
			}
			q := new(big.Rat).SetFrac(&ba, &bb)
			repr := q.Num().IsInt64() && q.Denom().IsInt64()
			var r Rat
			if panicked := mustPanic(func() { r = New(a, b) }); panicked == repr {
				t.Fatalf("New(%d, %d) panicked %v; %v fits int64: %v", a, b, panicked, q, repr)
			}
			if repr && (r.Num() != q.Num().Int64() || r.Den() != q.Denom().Int64()) {
				t.Fatalf("New(%d, %d) = %v, want %v", a, b, r, q)
			}
		}
	}
}
