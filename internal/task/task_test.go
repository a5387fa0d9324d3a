package task

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pfair/internal/rational"
)

func TestNewValidates(t *testing.T) {
	tk, err := New("T", 8, 11)
	if err != nil {
		t.Fatalf("New(8, 11): %v", err)
	}
	if tk.Cost != 8 || tk.Period != 11 {
		t.Fatalf("New stored %d/%d", tk.Cost, tk.Period)
	}
	for _, bad := range []struct{ e, p int64 }{{0, 5}, {-1, 5}, {6, 5}} {
		if _, err := New("bad", bad.e, bad.p); err == nil {
			t.Errorf("New(%d,%d) accepted invalid parameters", bad.e, bad.p)
		}
	}
	// MustNew panics where New errors.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNew(0,5) did not panic")
			}
		}()
		MustNew("bad", 0, 5)
	}()
}

func TestWeightAndHeavy(t *testing.T) {
	cases := []struct {
		e, p  int64
		heavy bool
	}{
		{8, 11, true},    // 0.727
		{1, 2, true},     // exactly 1/2 is heavy
		{1, 3, false},    // light
		{2, 3, true},     // heavy
		{1, 45, false},   // very light
		{5, 5, true},     // weight 1
		{49, 100, false}, // just under 1/2
	}
	for _, c := range cases {
		tk := MustNew("T", c.e, c.p)
		if got := tk.Weight(); got.Cmp(rational.New(c.e, c.p)) != 0 {
			t.Errorf("Weight(%d/%d) = %v", c.e, c.p, got)
		}
		if got := tk.Heavy(); got != c.heavy {
			t.Errorf("Heavy(%d/%d) = %v, want %v", c.e, c.p, got, c.heavy)
		}
	}
}

func TestSetTotals(t *testing.T) {
	s := Set{MustNew("A", 2, 3), MustNew("B", 2, 3), MustNew("C", 2, 3)}
	if got := s.TotalWeight(); got.CmpInt(2) != 0 {
		t.Errorf("TotalWeight = %v, want 2", got)
	}
	if got := s.MinProcessors(); got != 2 {
		t.Errorf("MinProcessors = %d, want 2", got)
	}
	if !s.Feasible(2) {
		t.Error("set should be feasible on 2 processors")
	}
	if s.Feasible(1) {
		t.Error("set should not be feasible on 1 processor")
	}
	if got := s.Hyperperiod(); got != 3 {
		t.Errorf("Hyperperiod = %d, want 3", got)
	}
}

func TestHyperperiod(t *testing.T) {
	s := Set{MustNew("A", 1, 4), MustNew("B", 1, 6), MustNew("C", 1, 10)}
	if got := s.Hyperperiod(); got != 60 {
		t.Errorf("Hyperperiod = %d, want 60", got)
	}
	if got := (Set{}).Hyperperiod(); got != 1 {
		t.Errorf("empty Hyperperiod = %d, want 1", got)
	}
}

func TestValidateDuplicates(t *testing.T) {
	s := Set{MustNew("A", 1, 2), MustNew("A", 1, 3)}
	if err := s.Validate(); err == nil {
		t.Error("Validate accepted duplicate names")
	}
	s = Set{MustNew("A", 1, 2), MustNew("B", 1, 3)}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate rejected valid set: %v", err)
	}
}

func TestSorts(t *testing.T) {
	s := Set{MustNew("A", 1, 10), MustNew("B", 5, 6), MustNew("C", 1, 10), MustNew("D", 2, 8)}
	byPeriod := s.SortByPeriodDecreasing()
	wantP := []string{"A", "C", "D", "B"}
	for i, n := range wantP {
		if byPeriod[i].Name != n {
			t.Fatalf("SortByPeriodDecreasing order %v", byPeriod)
		}
	}
	byUtil := s.SortByUtilizationDecreasing()
	wantU := []string{"B", "D", "A", "C"} // 5/6, 1/4, 1/10, 1/10
	for i, n := range wantU {
		if byUtil[i].Name != n {
			t.Fatalf("SortByUtilizationDecreasing order %v", byUtil)
		}
	}
	// Originals untouched.
	if s[0].Name != "A" || s[3].Name != "D" {
		t.Error("sort mutated the receiver")
	}
}

// TestQuickTotalWeightMatchesFloat cross-checks the exact rational total
// against float accumulation on random sets.
func TestQuickTotalWeightMatchesFloat(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		s := make(Set, 0, n)
		for i := 0; i < n; i++ {
			p := int64(1 + r.Intn(100))
			e := int64(1 + r.Intn(int(p)))
			s = append(s, &Task{Name: "t", Cost: e, Period: p})
		}
		exact := s.TotalWeight().Float()
		approx := s.TotalUtilization()
		diff := exact - approx
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickMinProcessorsFeasibility: the set is always feasible on
// MinProcessors() and never on one fewer.
func TestQuickMinProcessorsFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		s := make(Set, 0, n)
		for i := 0; i < n; i++ {
			p := int64(1 + r.Intn(50))
			e := int64(1 + r.Intn(int(p)))
			s = append(s, &Task{Name: "t", Cost: e, Period: p})
		}
		m := s.MinProcessors()
		if !s.Feasible(m) {
			return false
		}
		if m > 0 && s.Feasible(m-1) {
			// Feasible on m-1 means ceil was not minimal — only valid
			// when total weight is an exact integer ≤ m-1, which would
			// make MinProcessors return that integer. So this is a bug.
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSortsMatchSliceStable holds both sorts to the sort.SliceStable
// orders they replaced, on sets with repeated periods, weights and names,
// where only stability decides the order of distinct *Task values.
func TestSortsMatchSliceStable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		// dup repeats names, which the stable utilization sort must keep
		// in input order; SortByPeriodDecreasing is defined only for
		// unique names (Set.Validate), so it sorts uniq instead.
		var dup, uniq Set
		for i := 0; i < 1+r.Intn(40); i++ {
			p := []int64{2, 3, 4, 6, 12}[r.Intn(5)]
			k, e := r.Intn(8), 1+r.Int63n(p)
			dup = append(dup, MustNew(fmt.Sprintf("T%d", k), e, p))
			uniq = append(uniq, MustNew(fmt.Sprintf("T%d.%d", k, i), e, p))
		}
		byPeriod := uniq.Clone()
		sort.SliceStable(byPeriod, func(i, j int) bool {
			if byPeriod[i].Period != byPeriod[j].Period {
				return byPeriod[i].Period > byPeriod[j].Period
			}
			return byPeriod[i].Name < byPeriod[j].Name
		})
		byUtil := dup.Clone()
		sort.SliceStable(byUtil, func(i, j int) bool {
			wi, wj := byUtil[i].Weight(), byUtil[j].Weight()
			if wi.Cmp(wj) != 0 {
				return wj.Less(wi)
			}
			return byUtil[i].Name < byUtil[j].Name
		})
		for name, c := range map[string][2]Set{
			"SortByPeriodDecreasing":      {uniq.SortByPeriodDecreasing(), byPeriod},
			"SortByUtilizationDecreasing": {dup.SortByUtilizationDecreasing(), byUtil},
		} {
			for i := range c[1] {
				if c[0][i] != c[1][i] {
					t.Fatalf("trial %d: %s position %d is %p %v, sort.SliceStable has %p %v", trial, name, i, c[0][i], c[0][i], c[1][i], c[1][i])
				}
			}
		}
	}
}

// TestSortByPeriodDecreasingManyTies pins the period order against
// slices.SortStableFunc, the sort it replaced, on validated sets where
// most tasks share one of two periods: every tie is broken by the unique
// names alone.
func TestSortByPeriodDecreasingManyTies(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		var s Set
		for _, i := range r.Perm(1 + r.Intn(300)) {
			p := []int64{100, 100, 100, 250, 250, 40}[r.Intn(6)]
			s = append(s, MustNew(fmt.Sprintf("t%d", i), 1+r.Int63n(p), p))
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		want := s.Clone()
		slices.SortStableFunc(want, func(a, b *Task) int {
			if d := cmp.Compare(b.Period, a.Period); d != 0 {
				return d
			}
			return strings.Compare(a.Name, b.Name)
		})
		if got := s.SortByPeriodDecreasing(); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d tasks): unstable sort differs from the stable one", trial, len(s))
		}
	}
}

// TestOrderByPeriodDecreasingMatchesReference holds the integer-keyed
// period order to a stable sort of the indices by (period desc,
// strings.Compare) on random sets built to defeat its shortcuts: names
// longer than 8 bytes that share their first 8, names that are prefixes
// of each other, names with NUL bytes (inside, and trailing, where the
// zero-padded prefix cannot tell them apart), repeated names, random
// bytes whose prefixes differ in more bits than a key holds, few and
// many distinct periods, and sets from empty to past the stack buffers.
func TestOrderByPeriodDecreasingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	names := []func(i int) string{
		func(i int) string { return fmt.Sprintf("T%d", i) },
		func(i int) string { return fmt.Sprintf("longname%d", i) },            // one 8-byte prefix
		func(i int) string { return strings.Repeat("a", i%12) },               // prefixes of each other
		func(i int) string { return "a" + strings.Repeat("\x00", i%10) },      // trailing NULs
		func(i int) string { return fmt.Sprintf("\x00%c\x00%d", 'a'+i%3, i) }, // inner NULs
		func(int) string { return string(rune('A' + r.Intn(3))) },             // repeated: ties by index
		func(int) string { // any bytes, differing from the first to the eighth
			b := make([]byte, 7+r.Intn(4))
			r.Read(b)
			return string(b)
		},
	}
	periods := []func() int64{
		func() int64 { return []int64{50000, 100000, 200000, 250000, 500000, 1000000}[r.Intn(6)] },
		func() int64 { return 1 + r.Int63n(1<<62) }, // many distinct, far apart
		func() int64 { return 7 },
	}
	trial := 0
	for _, n := range []int{0, 1, 2, 3, 17, 64, 500, maxStackSet + 300} {
		for _, name := range names {
			for _, period := range periods {
				for range 2 {
					checkPeriodOrder(t, trial, n, name, period, r)
					trial++
				}
			}
		}
	}
}

// checkPeriodOrder builds one n-task set from the name and period
// generators and compares its period order with the reference.
func checkPeriodOrder(t *testing.T, trial, n int, name func(int) string, period func() int64, r *rand.Rand) {
	t.Helper()
	s := make(Set, n)
	for i := range s {
		s[i] = &Task{Name: name(i), Cost: 1, Period: period()}
	}
	want := make([]int32, n)
	for i := range want {
		want[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b int32) int {
		return cmp.Or(cmp.Compare(s[b].Period, s[a].Period), strings.Compare(s[a].Name, s[b].Name))
	})
	got := s.OrderByPeriodDecreasing([]int32{-1})
	if got[0] != -1 || !slices.Equal(got[1:], want) {
		t.Fatalf("trial %d (%d tasks): order %v, want %v after -1", trial, n, got, want)
	}
	sorted := s.SortByPeriodDecreasing()
	for i, k := range want {
		if sorted[i] != s[k] {
			t.Fatalf("trial %d (%d tasks): SortByPeriodDecreasing position %d is %v, want %v", trial, n, i, sorted[i], s[k])
		}
	}
}
