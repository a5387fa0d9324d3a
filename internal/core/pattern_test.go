package core

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"pfair/internal/rational"
	"pfair/internal/task"
)

// TestFig1aWindows pins the window layout of Figure 1(a): the first two
// jobs of a periodic task with weight 8/11.
func TestFig1aWindows(t *testing.T) {
	pt := NewPattern(8, 11)
	want := []struct {
		i    int64
		r, d int64
	}{
		{1, 0, 2}, {2, 1, 3}, {3, 2, 5}, {4, 4, 6},
		{5, 5, 7}, {6, 6, 9}, {7, 8, 10}, {8, 9, 11},
		// Second job: same pattern shifted by the period.
		{9, 11, 13}, {10, 12, 14}, {11, 13, 16}, {12, 15, 17},
		{13, 16, 18}, {14, 17, 20}, {15, 19, 21}, {16, 20, 22},
	}
	for _, w := range want {
		if got := pt.Release(w.i); got != w.r {
			t.Errorf("r(T%d) = %d, want %d", w.i, got, w.r)
		}
		if got := pt.Deadline(w.i); got != w.d {
			t.Errorf("d(T%d) = %d, want %d", w.i, got, w.d)
		}
	}
	// "b(Tᵢ) = 1 for 1 ≤ i ≤ 7 and b(T₈) = 0."
	for i := int64(1); i <= 7; i++ {
		if pt.BBit(i) != 1 {
			t.Errorf("b(T%d) = %d, want 1", i, pt.BBit(i))
		}
	}
	if pt.BBit(8) != 0 {
		t.Errorf("b(T8) = %d, want 0", pt.BBit(8))
	}
	// "Subtask T₃ has a group deadline at time 8 and subtask T₇ has a
	// group deadline at time 11."
	if got := pt.GroupDeadline(3); got != 8 {
		t.Errorf("D(T3) = %d, want 8", got)
	}
	if got := pt.GroupDeadline(7); got != 11 {
		t.Errorf("D(T7) = %d, want 11", got)
	}
}

func TestPatternValidation(t *testing.T) {
	for _, bad := range [][2]int64{{0, 5}, {-1, 5}, {6, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPattern(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			NewPattern(bad[0], bad[1])
		}()
	}
}

func TestWeightOnePattern(t *testing.T) {
	pt := NewPattern(4, 4)
	for i := int64(1); i <= 10; i++ {
		if pt.Release(i) != i-1 || pt.Deadline(i) != i {
			t.Fatalf("weight-1 window of T%d = [%d,%d), want [%d,%d)", i, pt.Release(i), pt.Deadline(i), i-1, i)
		}
		if pt.BBit(i) != 0 {
			t.Fatalf("weight-1 b(T%d) = %d, want 0", i, pt.BBit(i))
		}
		if pt.GroupDeadline(i) != i {
			t.Fatalf("weight-1 D(T%d) = %d, want %d", i, pt.GroupDeadline(i), i)
		}
	}
}

func TestLightGroupDeadlineZero(t *testing.T) {
	pt := NewPattern(1, 3)
	for i := int64(1); i <= 9; i++ {
		if pt.GroupDeadline(i) != 0 {
			t.Fatalf("light D(T%d) = %d, want 0", i, pt.GroupDeadline(i))
		}
	}
}

func TestJobIndexFirstOfJob(t *testing.T) {
	pt := NewPattern(3, 5)
	wantJob := []int64{1, 1, 1, 2, 2, 2, 3}
	wantFirst := []bool{true, false, false, true, false, false, true}
	for k, i := 0, int64(1); i <= 7; i, k = i+1, k+1 {
		if got := pt.JobIndex(i); got != wantJob[k] {
			t.Errorf("JobIndex(%d) = %d, want %d", i, got, wantJob[k])
		}
		if got := pt.FirstOfJob(i); got != wantFirst[k] {
			t.Errorf("FirstOfJob(%d) = %v, want %v", i, got, wantFirst[k])
		}
	}
}

func TestLag(t *testing.T) {
	pt := NewPattern(2, 3)
	// At t=3 the fluid schedule has given exactly 2 quanta.
	if got := pt.Lag(3, 2); !got.IsZero() {
		t.Errorf("lag(3, alloc=2) = %v, want 0", got)
	}
	if got := pt.Lag(3, 1); got.Cmp(rational.New(1, 1)) != 0 {
		t.Errorf("lag(3, alloc=1) = %v, want 1", got)
	}
	if got := pt.Lag(2, 2); got.Cmp(rational.New(-2, 3)) != 0 {
		t.Errorf("lag(2, alloc=2) = %v, want -2/3", got)
	}
}

// randomPattern draws a pattern with period ≤ 60.
func randomPattern(r *rand.Rand) *Pattern {
	p := int64(1 + r.Intn(60))
	e := int64(1 + r.Intn(int(p)))
	return NewPattern(e, p)
}

// TestQuickWindowStructure checks the structural facts Section 2 states
// about windows: consecutive windows overlap by one slot iff b = 1, window
// lengths differ by at most one, and every subtask's window is non-empty.
func TestQuickWindowStructure(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pt := randomPattern(r)
		minLen := rational.CeilDiv(pt.Period(), pt.Cost())
		for i := int64(1); i <= 3*pt.Cost(); i++ {
			ln := pt.Deadline(i) - pt.Release(i)
			if ln < 1 {
				return false
			}
			if ln < minLen || ln > minLen+1 {
				return false
			}
			// r(Tᵢ₊₁) = d(Tᵢ) − b(Tᵢ): overlap by exactly b slots.
			if pt.Release(i+1) != pt.Deadline(i)-int64(pt.BBit(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPatternPeriodicity: all window parameters repeat every e
// subtasks, shifted by p.
func TestQuickPatternPeriodicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pt := randomPattern(r)
		e, p := pt.Cost(), pt.Period()
		for i := int64(1); i <= 2*e; i++ {
			if pt.Release(i+e) != pt.Release(i)+p {
				return false
			}
			if pt.Deadline(i+e) != pt.Deadline(i)+p {
				return false
			}
			if pt.BBit(i+e) != pt.BBit(i) {
				return false
			}
			if pt.Heavy() && pt.GroupDeadline(i+e) != pt.GroupDeadline(i)+p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickGroupDeadlineMatchesBruteForce validates the memoized walk
// against a literal scan of the definition: the earliest t ≥ d(Tᵢ) with
// some k ≥ i satisfying (t = d(Tₖ) ∧ b(Tₖ)=0) ∨ (t+1 = d(Tₖ) ∧ |w(Tₖ)|=3).
func TestQuickGroupDeadlineMatchesBruteForce(t *testing.T) {
	brute := func(pt *Pattern, i int64) int64 {
		di := pt.Deadline(i)
		for tt := di; ; tt++ {
			for k := i; k <= i+2*pt.Cost()+2; k++ {
				if tt == pt.Deadline(k) && pt.BBit(k) == 0 {
					return tt
				}
				if tt+1 == pt.Deadline(k) && pt.Deadline(k)-pt.Release(k) == 3 {
					return tt
				}
			}
			if tt > di+3*pt.Period() {
				panic("brute-force group deadline ran away")
			}
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Heavy patterns only: weight in [1/2, 1).
		p := int64(2 + r.Intn(40))
		e := (p+1)/2 + r.Int63n(p-(p+1)/2) // in [ceil(p/2), p-1]
		if e >= p {
			e = p - 1
		}
		if e < (p+1)/2 {
			e = (p + 1) / 2
		}
		pt := NewPattern(e, p)
		for i := int64(1); i <= e+2; i++ {
			if pt.GroupDeadline(i) != brute(pt, i) {
				t.Logf("pattern %d/%d subtask %d: fast=%d brute=%d", e, p, i, pt.GroupDeadline(i), brute(pt, i))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickGroupDeadlineBounds: for heavy tasks, D(Tᵢ) ≥ d(Tᵢ), and the
// cascade ends within one period of the deadline.
func TestQuickGroupDeadlineBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := int64(2 + r.Intn(50))
		e := (p + 1) / 2
		pt := NewPattern(e, p)
		for i := int64(1); i <= 2*e; i++ {
			d := pt.Deadline(i)
			g := pt.GroupDeadline(i)
			if g < d || g > d+p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickLagWindowConsistency: scheduling every subtask inside its
// window keeps the lag strictly inside (−1, 1). We verify the equivalence
// on the two extreme in-window policies: always the first slot of the
// window and always the last.
func TestQuickLagWindowConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pt := randomPattern(r)
		one := rational.One()
		for _, last := range []bool{false, true} {
			horizon := 3 * pt.Period()
			slotOf := make(map[int64]int64) // subtask -> slot scheduled
			for i := int64(1); ; i++ {
				s := pt.Release(i)
				if last {
					s = pt.Deadline(i) - 1
				}
				if s >= horizon {
					break
				}
				slotOf[i] = s
			}
			alloc := int64(0)
			next := int64(1)
			for tt := int64(0); tt < horizon; tt++ {
				if s, ok := slotOf[next]; ok && s == tt {
					alloc++
					next++
				}
				lag := pt.Lag(tt+1, alloc)
				if !lag.Less(one) || !one.Neg().Less(lag) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// bigWindow is the window formula evaluated independently of Pattern, in
// math/big: r = ⌊(i−1)·p/e⌋, d = ⌈i·p/e⌉, and b = 1 iff e ∤ i·p.
func bigWindow(e, p, i int64) (r, d int64, b int) {
	be, bp := big.NewInt(e), big.NewInt(p)
	num := new(big.Int).Mul(big.NewInt(i-1), bp)
	r = new(big.Int).Div(num, be).Int64() // Euclidean: floor for e > 0
	num.Mul(big.NewInt(i), bp)
	q, m := new(big.Int).DivMod(num, be, new(big.Int))
	d = q.Int64()
	if m.Sign() != 0 {
		d++
		b = 1
	}
	return r, d, b
}

// checkWindow compares Release, Deadline and BBit of subtask i with
// bigWindow, and, when walk is set and the pattern is heavy,
// GroupDeadline with the definitional walk.
func checkWindow(t *testing.T, pt *Pattern, i int64, walk bool) {
	t.Helper()
	r, d, b := bigWindow(pt.Cost(), pt.Period(), i)
	if got := pt.Release(i); got != r {
		t.Fatalf("pattern %d/%d: r(T%d) = %d, want %d", pt.Cost(), pt.Period(), i, got, r)
	}
	if got := pt.Deadline(i); got != d {
		t.Fatalf("pattern %d/%d: d(T%d) = %d, want %d", pt.Cost(), pt.Period(), i, got, d)
	}
	if got := pt.BBit(i); got != b {
		t.Fatalf("pattern %d/%d: b(T%d) = %d, want %d", pt.Cost(), pt.Period(), i, got, b)
	}
	if walk && pt.Heavy() {
		if got, want := pt.GroupDeadline(i), pt.groupDeadlineSlow(i); got != want {
			t.Fatalf("pattern %d/%d: D(T%d) = %d, walk gives %d", pt.Cost(), pt.Period(), i, got, want)
		}
	}
}

// TestWindowFormulaOracle checks the single-division window formula
// against math/big for every pattern with 1 ≤ e ≤ p ≤ 64 over its first
// three jobs and one more subtask, and the closed-form group deadline
// against the definitional walk.
func TestWindowFormulaOracle(t *testing.T) {
	for p := int64(1); p <= 64; p++ {
		for e := int64(1); e <= p; e++ {
			pt := NewPattern(e, p)
			for i := int64(1); i <= 3*e+1; i++ {
				checkWindow(t, pt, i, true)
			}
		}
	}
}

// TestQuickGroupDeadlineClosedForm checks the closed-form group deadline
// against the definitional walk for random heavy patterns with periods
// up to 200, beyond the exhaustive range of TestWindowFormulaOracle,
// over the first two jobs and two more subtasks.
func TestQuickGroupDeadlineClosedForm(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := int64(1 + r.Intn(200))
		e := (p+1)/2 + r.Int63n(p-(p+1)/2+1) // in [⌈p/2⌉, p]
		pt := NewPattern(e, p)
		for i := int64(1); i <= 2*e+2; i++ {
			if got, walk := pt.GroupDeadline(i), pt.groupDeadlineSlow(i); got != walk {
				t.Logf("pattern %d/%d subtask %d: closed=%d walk=%d", e, p, i, got, walk)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestUntabulatedGroupDeadline checks three heavy patterns with costs far
// above the exhaustive range, where a per-subtask table would be large,
// at the subtasks around their first period boundary: windows against
// math/big and the group deadline against the definitional walk.
func TestUntabulatedGroupDeadline(t *testing.T) {
	for _, tc := range []struct{ e, p int64 }{
		{4097, 8193},
		{12288, 12295},
		{8192, 16384},
	} {
		pt := NewPattern(tc.e, tc.p)
		for _, i := range []int64{1, 2, 3, tc.e / 2, tc.e - 1, tc.e, tc.e + 1, tc.e + 2, 2 * tc.e} {
			checkWindow(t, pt, i, true)
		}
	}
}

// FuzzPatternWindow checks the window formula against math/big for
// fuzzed 1 ≤ e ≤ p and i ≥ 1 wherever i·p fits in int64, and the group
// deadline against the definitional walk where the walk is short and
// stays in range.
func FuzzPatternWindow(f *testing.F) {
	f.Add(int64(8), int64(11), int64(7))
	f.Add(int64(1), int64(1), int64(1))
	f.Add(int64(4097), int64(8193), int64(4098))
	f.Add(int64(3_000_000_000), int64(6_000_000_000), int64(1_000_000_007))
	f.Add(int64(9), int64(math.MaxInt64), int64(1))
	f.Fuzz(func(t *testing.T, e, p, i int64) {
		if e < 1 || p < e || i < 1 || i > math.MaxInt64/p {
			t.Skip()
		}
		pt := NewPattern(e, p)
		walk := e <= 4096 && i+e+2 <= math.MaxInt64/p
		checkWindow(t, pt, i, walk)
	})
}

// TestUntabulatedPatternMemory: a heavy task of cost 3·10⁹ and period
// 6·10⁹, as `pfairsim -m 1 -slots 10 A:3000000000/6000000000` runs it,
// joins and schedules ten slots in under a megabyte, most of it the
// scheduler's span-capped queues: nothing in the pattern grows with the
// cost (a per-subtask group-deadline table would take 24 GB). Weight 1/2
// earns exactly five quanta by slot 10.
func TestUntabulatedPatternMemory(t *testing.T) {
	const maxBytes = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewScheduler(1, PD2, Options{})
	if err := s.Join(task.MustNew("A", 3_000_000_000, 6_000_000_000)); err != nil {
		t.Fatal(err)
	}
	quanta := 0
	for slot := 0; slot < 10; slot++ {
		quanta += len(s.Step())
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
		t.Errorf("join and ten slots allocated %d bytes, want ≤ %d", got, maxBytes)
	}
	if quanta != 5 {
		t.Errorf("scheduled %d quanta in ten slots, want 5", quanta)
	}
	if m := s.Stats().Misses; len(m) != 0 {
		t.Errorf("missed: %+v", m)
	}
}
