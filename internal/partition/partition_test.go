package partition

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pfair/internal/rational"
	"pfair/internal/task"
)

// TestPartitioningSuboptimal pins Section 3's motivating example: three
// synchronous periodic tasks with cost 2 and period 3 are feasible on two
// processors under Pfair scheduling, but NO partitioning (heuristic or
// exact) fits them on two processors.
func TestPartitioningSuboptimal(t *testing.T) {
	set := task.Set{task.MustNew("A", 2, 3), task.MustNew("B", 2, 3), task.MustNew("C", 2, 3)}
	if got := set.MinProcessors(); got != 2 {
		t.Fatalf("global feasibility needs %d processors, want 2", got)
	}
	for _, h := range []Heuristic{FirstFit, BestFit, WorstFit, NextFit} {
		a := Pack(set, 2, h, EDFTest)
		if a.OK() {
			t.Errorf("%v packed the unpackable set on 2 processors", h)
		}
		n, ok := MinProcessors(set, h, EDFTest)
		if !ok || n != 3 {
			t.Errorf("%v needs %d processors, want 3", h, n)
		}
	}
	n, ok := MinProcessorsExact(set, EDFTest)
	if !ok || n != 3 {
		t.Errorf("exact packing needs %d processors, want 3 (partitioning is inherently suboptimal)", n)
	}
}

// TestWorstCaseHalfBound: M+1 tasks of utilization (1+ε)/2 defeat every
// heuristic on M processors — the (M+1)/2 worst case of Section 3.
func TestWorstCaseHalfBound(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		var set task.Set
		for i := 0; i <= m; i++ {
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), 51, 100))
		}
		for _, h := range []Heuristic{FirstFit, BestFit, WorstFit, NextFit} {
			n, ok := MinProcessors(set, h, EDFTest)
			if !ok || n != m+1 {
				t.Errorf("m=%d %v: placed on %d processors, want %d", m, h, n, m+1)
			}
		}
		// Even the exact packer cannot do better: this is a lower bound
		// on partitioning itself, not a heuristic artifact.
		if n, ok := MinProcessorsExact(set, EDFTest); !ok || n != m+1 {
			t.Errorf("m=%d exact: %d processors, want %d", m, n, m+1)
		}
	}
}

// TestLopezBound checks the closed form and its guarantee.
func TestLopezBound(t *testing.T) {
	// umax = 1 ⇒ β = 1 ⇒ (m+1)/2.
	if got, err := LopezBound(4, rational.One()); err != nil || got.Cmp(rational.New(5, 2)) != 0 {
		t.Errorf("LopezBound(4, 1) = %v, %v, want 5/2", got, err)
	}
	// umax = 1/3 ⇒ β = 3 ⇒ (3m+1)/4.
	if got, err := LopezBound(4, rational.New(1, 3)); err != nil || got.Cmp(rational.New(13, 4)) != 0 {
		t.Errorf("LopezBound(4, 1/3) = %v, %v, want 13/4", got, err)
	}
	if _, err := LopezBound(2, rational.New(3, 2)); err == nil {
		t.Error("LopezBound accepted umax > 1")
	}
	if _, err := LopezBound(2, rational.Zero()); err == nil {
		t.Error("LopezBound accepted umax = 0")
	}
	if _, err := LopezBound(0, rational.One()); err == nil {
		t.Error("LopezBound accepted m = 0")
	}
}

// TestQuickLopezGuarantee: any set with per-task utilization ≤ umax and
// total utilization ≤ (βm+1)/(β+1) is schedulable by EDF-FF on m
// processors — the theorem of Lopez et al. the paper cites.
func TestQuickLopezGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(6)
		umaxDen := int64(2 + r.Intn(6))
		umax := rational.New(1, umaxDen)
		bound, err := LopezBound(m, umax)
		if err != nil {
			return false
		}
		var set task.Set
		total := rational.NewAcc()
		for i := 0; i < 200; i++ {
			p := umaxDen * int64(1+r.Intn(20))
			e := 1 + r.Int63n(p/umaxDen) // utilization ≤ umax
			w := rational.New(e, p)
			if total.Clone().Add(w).Cmp(bound) > 0 {
				continue
			}
			total.Add(w)
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, p))
		}
		a := Pack(set, m, FirstFit, EDFTest)
		if !a.OK() {
			t.Logf("m=%d umax=%v total=%v: FF failed below the Lopez bound", m, umax, total)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFFDBeatsFF on the classic instance where arrival order hurts FF.
func TestFFDBeatsFF(t *testing.T) {
	// Arrival order: four 1/4-ish fillers then two 3/4 items. FF puts the
	// fillers on one processor... construct: items 0.3,0.3,0.3,0.7,0.7,0.7.
	var set task.Set
	for i := 0; i < 3; i++ {
		set = append(set, task.MustNew(fmt.Sprintf("small%d", i), 3, 10))
	}
	for i := 0; i < 3; i++ {
		set = append(set, task.MustNew(fmt.Sprintf("big%d", i), 7, 10))
	}
	ff, _ := MinProcessors(set, FirstFit, EDFTest)
	ffd, _ := MinProcessors(set.SortByUtilizationDecreasing(), FirstFit, EDFTest)
	if !(ffd < ff) {
		t.Errorf("FFD (%d) should beat FF (%d) on this instance", ffd, ff)
	}
	if exact, ok := MinProcessorsExact(set, EDFTest); !ok || exact != 3 {
		t.Errorf("exact = %d, want 3", exact)
	}
}

// TestQuickHeuristicsVsExact: the exact packer never uses more processors
// than any heuristic, and never fewer than ⌈Σu⌉.
func TestQuickHeuristicsVsExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(9)
		var set task.Set
		for i := 0; i < n; i++ {
			p := int64(2 + r.Intn(20))
			e := int64(1 + r.Intn(int(p)))
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, p))
		}
		exact, ok := MinProcessorsExact(set, EDFTest)
		if !ok {
			return false
		}
		if int64(exact) < set.TotalWeight().Ceil() {
			return false
		}
		for _, h := range []Heuristic{FirstFit, BestFit, WorstFit, NextFit} {
			hn, hok := MinProcessors(set, h, EDFTest)
			if !hok || hn < exact {
				t.Logf("set %v: %v used %d < exact %d", set, h, hn, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestQuickPackRespectsTest: every processor in a packing passes its own
// acceptance test (incrementally maintained invariant re-verified from
// scratch).
func TestQuickPackRespectsTest(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(25)
		var set task.Set
		for i := 0; i < n; i++ {
			p := int64(2 + r.Intn(30))
			e := int64(1 + r.Intn(int(p)))
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, p))
		}
		for _, h := range []Heuristic{FirstFit, BestFit, WorstFit, NextFit} {
			a := Pack(set, 0, h, EDFTest)
			placed := 0
			for _, proc := range a.Processors {
				placed += len(proc)
				if proc.TotalWeight().CmpInt(1) > 0 {
					return false
				}
			}
			if placed+len(a.Unplaced) != len(set) {
				return false
			}
			if len(a.Unplaced) != 0 {
				return false // unbounded EDF packing always succeeds
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestHeuristicString covers the stringer.
func TestHeuristicString(t *testing.T) {
	for h, want := range map[Heuristic]string{
		FirstFit: "first-fit", BestFit: "best-fit", WorstFit: "worst-fit",
		NextFit: "next-fit", Heuristic(7): "Heuristic(7)",
	} {
		if h.String() != want {
			t.Errorf("String = %q, want %q", h.String(), want)
		}
	}
}

// TestNextFitNeverLooksBack: next-fit's defining behaviour.
func TestNextFitNeverLooksBack(t *testing.T) {
	set := task.Set{
		task.MustNew("a", 1, 2), task.MustNew("b", 9, 10), // forces a second processor
		task.MustNew("c", 1, 2), // fits on proc 0, but next-fit won't return
	}
	a := Pack(set, 0, NextFit, EDFTest)
	if a.NumUsed() != 3 {
		t.Fatalf("next-fit used %d processors, want 3", a.NumUsed())
	}
	ff := Pack(set, 0, FirstFit, EDFTest)
	if ff.NumUsed() != 2 {
		t.Fatalf("first-fit used %d processors, want 2", ff.NumUsed())
	}
}

// TestMinProcessorsUnplaceable: under the inflated/RM acceptance tests a
// task can fit on no processor at all.
func TestMinProcessorsUnplaceable(t *testing.T) {
	never := func(task.Set, *task.Task) bool { return false }
	if _, ok := MinProcessors(task.Set{task.MustNew("a", 1, 2)}, FirstFit, never); ok {
		t.Error("unplaceable task reported ok")
	}
	if _, ok := MinProcessorsExact(task.Set{task.MustNew("a", 1, 2)}, never); ok {
		t.Error("exact packer reported ok for an unplaceable task")
	}
}

// TestMinProcessorsExactEarlyExit: when FFD already meets the ⌈Σu⌉ lower
// bound the search returns immediately with that answer.
func TestMinProcessorsExactEarlyExit(t *testing.T) {
	set := task.Set{task.MustNew("a", 1, 2), task.MustNew("b", 1, 2), task.MustNew("c", 1, 2), task.MustNew("d", 1, 2)}
	n, ok := MinProcessorsExact(set, EDFTest)
	if !ok || n != 2 {
		t.Fatalf("exact = %d, want 2", n)
	}
}

// TestExactImprovesOnFFD: an instance where FFD is strictly suboptimal and
// the branch-and-bound recovers the true optimum. Sizes (in hundredths):
// 55, 45, 40, 35, 30, 25, 20, 50 → exact 3 bins (55+45, 50+30+20,
// 40+35+25), FFD 4 (55+45, 50+40, 35+30+25, 20).
func TestExactImprovesOnFFD(t *testing.T) {
	sizes := []int64{55, 45, 40, 35, 30, 25, 20, 50}
	var set task.Set
	for i, s := range sizes {
		set = append(set, task.MustNew(fmt.Sprintf("T%d", i), s, 100))
	}
	ffd, _ := MinProcessors(set.SortByUtilizationDecreasing(), FirstFit, EDFTest)
	exact, ok := MinProcessorsExact(set, EDFTest)
	if !ok {
		t.Fatal("exact failed")
	}
	if ffd != 4 || exact != 3 {
		t.Fatalf("FFD = %d, exact = %d; want 4 and 3", ffd, exact)
	}
}
