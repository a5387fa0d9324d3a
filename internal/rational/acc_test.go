package rational

import (
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
