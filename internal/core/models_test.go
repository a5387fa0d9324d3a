package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/rational"
	"pfair/internal/task"
)

func TestSporadicModelOffsets(t *testing.T) {
	// Task with cost 3: jobs are subtasks {1,2,3}, {4,5,6}, …
	gaps := map[int64]int64{2: 4, 4: 1}
	m := &SporadicModel{Cost: 3, Gap: func(j int64) int64 { return gaps[j] }}
	// Job 1: no delay. Job 2: +4. Job 3: +4. Job 4: +5.
	wants := []struct{ i, off int64 }{
		{1, 0}, {3, 0}, {4, 4}, {6, 4}, {7, 4}, {9, 4}, {10, 5}, {12, 5},
	}
	for _, w := range wants {
		if got := m.Offset(w.i); got != w.off {
			t.Errorf("Offset(%d) = %d, want %d", w.i, got, w.off)
		}
	}
	if m.Earliness(5) != 0 {
		t.Error("sporadic tasks are never early")
	}
}

func TestSporadicModelNegativeGapPanics(t *testing.T) {
	m := &SporadicModel{Cost: 2, Gap: func(int64) int64 { return -1 }}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative gap")
		}
	}()
	m.Offset(1)
}

// TestSporadicSeparation: with the model installed, consecutive job
// releases are separated by at least the period.
func TestSporadicSeparation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	e, p := int64(2), int64(5)
	m := &SporadicModel{Cost: e, Gap: func(j int64) int64 { return r.Int63n(4) }}
	pat := NewPattern(e, p)
	prev := int64(-1 << 60)
	for j := int64(1); j <= 50; j++ {
		first := (j-1)*e + 1
		release := m.Offset(first) + pat.Release(first)
		if release-prev < p && j > 1 {
			t.Fatalf("job %d released %d after previous %d: separation < period %d", j, release, prev, p)
		}
		prev = release
	}
}

// TestSporadicPD2NoMisses: PD² schedules sporadic systems without misses
// (they are a special case of the IS systems it is optimal for).
func TestSporadicPD2NoMisses(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		m := 1 + r.Intn(3)
		set := randomFeasibleSet(r, m, 5, 10)
		if len(set) == 0 {
			continue
		}
		s := NewScheduler(m, PD2, Options{})
		for k, tk := range set {
			seed := int64(trial*100 + k)
			gaps := rand.New(rand.NewSource(seed))
			if _, err := s.Submit(admission.JoinModel(tk, &SporadicModel{Cost: tk.Cost, Gap: func(int64) int64 {
				return gaps.Int63n(5)
			}})); err != nil {
				t.Fatal(err)
			}
		}
		s.RunUntil(3000)
		s.FinishMisses(3000)
		if n := len(s.Stats().Misses); n != 0 {
			t.Fatalf("trial %d: sporadic PD² missed %d (first %+v)", trial, n, s.Stats().Misses[0])
		}
	}
}

// TestAllocationAccounting: over k whole hyperperiods of a synchronous
// fully-utilizing set, PD² gives every task exactly k·e·(H/p) quanta — the
// fluid schedule's integral, a sharper property than miss-freedom.
func TestAllocationAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		m := 1 + r.Intn(3)
		// Build a fully-utilizing set from unit fractions of a common
		// period so the hyperperiod stays small.
		base := int64(2+r.Intn(5)) * 2
		var set task.Set
		budget := rational.NewAcc()
		for i := 0; i < 8; i++ {
			e := int64(1 + r.Intn(int(base)))
			w := rational.New(e, base)
			if budget.Clone().Add(w).CmpInt(int64(m)) > 0 {
				continue
			}
			budget.Add(w)
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, base))
		}
		if len(set) == 0 {
			continue
		}
		s := NewScheduler(m, PD2, Options{})
		alloc := map[string]int64{}
		s.OnSlot(func(tt int64, assigned []Assignment) {
			for _, a := range assigned {
				alloc[s.Name(a.Task)]++
			}
		})
		for _, tk := range set {
			if err := s.Join(tk); err != nil {
				t.Fatal(err)
			}
		}
		const k = 7
		s.RunUntil(k * base)
		for _, tk := range set {
			want := k * tk.Cost
			if alloc[tk.Name] != want {
				t.Fatalf("trial %d: %v received %d quanta over %d hyperperiods, want %d",
					trial, tk, alloc[tk.Name], k, want)
			}
		}
	}
}

// TestAsynchronousPeriodic: tasks joining at staggered times model
// asynchronous periodic systems (first releases at arbitrary offsets);
// PD² keeps them miss-free.
func TestAsynchronousPeriodic(t *testing.T) {
	s := NewScheduler(2, PD2, Options{})
	offsets := map[string]int64{"A": 0, "B": 3, "C": 7, "D": 11}
	for tt := int64(0); tt < 2000; tt++ {
		for name, off := range offsets {
			if off == tt {
				if err := s.Join(task.MustNew(name, 1, 3)); err != nil {
					t.Fatalf("join %s: %v", name, err)
				}
			}
		}
		s.Step()
	}
	s.FinishMisses(2000)
	if n := len(s.Stats().Misses); n != 0 {
		t.Fatalf("asynchronous periodic set missed %d", n)
	}
}

// TestExportedHelpers covers the small exported surface used by external
// simulators and callers: Less/SubtaskRef and Processors.
func TestExportedHelpers(t *testing.T) {
	a := SubtaskRef{Pat: NewPattern(1, 2), Index: 1, ID: 0}
	b := SubtaskRef{Pat: NewPattern(1, 3), Index: 1, ID: 1}
	if !Less(PD2, a, b) || Less(PD2, b, a) {
		t.Error("exported Less mismatch: earlier deadline must win")
	}
	heavy := SubtaskRef{Pat: NewPattern(8, 11), Index: 1, Offset: 2, ID: 2}
	if Less(PD2, heavy, heavy) {
		t.Error("Less not irreflexive")
	}

	s := NewScheduler(3, PD2, Options{})
	if s.Processors() != 3 {
		t.Error("Processors mismatch")
	}
	if err := s.Join(task.MustNew("T", 1, 2)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(4)
	lag, err := s.Lag("T")
	if err != nil {
		t.Fatal(err)
	}
	if !lag.Less(rational.One()) || !rational.One().Neg().Less(lag) {
		t.Errorf("lag %v outside (-1,1)", lag)
	}
}

// TestFailProcessorsPanics: removing every processor is rejected.
func TestFailProcessorsPanics(t *testing.T) {
	s := NewScheduler(2, PD2, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for failing all processors")
		}
	}()
	s.FailProcessors(2)
}
