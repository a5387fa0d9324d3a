package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pfair/internal/rational"
	"pfair/internal/task"
)

func TestSporadicModelOffsets(t *testing.T) {
	// Task with cost 3: jobs are subtasks {1,2,3}, {4,5,6}, …
	gaps := map[int64]int64{2: 4, 4: 1}
	m := NewSporadicModel(3, func(j int64) int64 { return gaps[j] })
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

func TestSporadicModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive cost")
		}
	}()
	NewSporadicModel(0, nil)
}

func TestSporadicModelNegativeGapPanics(t *testing.T) {
	m := NewSporadicModel(2, func(int64) int64 { return -1 })
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
	m := NewSporadicModel(e, func(j int64) int64 { return r.Int63n(4) })
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
			if err := s.JoinModel(tk, NewSporadicModel(tk.Cost, func(int64) int64 {
				return gaps.Int63n(5)
			})); err != nil {
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

func TestScriptModel(t *testing.T) {
	m := &ScriptModel{
		Offsets: map[int64]int64{5: 1, 9: 3},
		Early:   map[int64]int64{3: 2},
	}
	if got := m.Offset(4); got != 0 {
		t.Errorf("Offset(4) = %d", got)
	}
	if got := m.Offset(5); got != 1 {
		t.Errorf("Offset(5) = %d", got)
	}
	if got := m.Offset(8); got != 1 {
		t.Errorf("Offset(8) = %d", got)
	}
	if got := m.Offset(20); got != 3 {
		t.Errorf("Offset(20) = %d", got)
	}
	if got := m.Earliness(3); got != 2 {
		t.Errorf("Earliness(3) = %d", got)
	}
	if got := m.Earliness(4); got != 0 {
		t.Errorf("Earliness(4) = %d", got)
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
				alloc[a.Task]++
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

// TestMixedPfairERfair: per-task early release (mixed systems, after [4]).
// The eager task runs its job's subtasks back-to-back; the strict task
// stays inside its Pfair windows; no deadlines are missed.
func TestMixedPfairERfair(t *testing.T) {
	s := NewScheduler(1, PD2, Options{}) // global default: strict Pfair
	if err := s.JoinEarlyRelease(task.MustNew("eager", 2, 8), nil, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(task.MustNew("strict", 2, 8)); err != nil {
		t.Fatal(err)
	}
	slotsOf := map[string][]int64{}
	s.OnSlot(func(tt int64, assigned []Assignment) {
		for _, a := range assigned {
			slotsOf[a.Task] = append(slotsOf[a.Task], tt)
		}
	})
	s.RunUntil(8)
	s.FinishMisses(8)
	if n := len(s.Stats().Misses); n != 0 {
		t.Fatalf("mixed system missed %d", n)
	}
	// eager's second subtask (Pfair window [4,8)) must run before slot 4:
	// early release made it eligible as soon as the first completed.
	es := slotsOf["eager"]
	if len(es) != 2 || es[1] >= 4 {
		t.Fatalf("eager slots %v; second subtask should run before its Pfair release 4", es)
	}
	// strict's second subtask cannot run before slot 4.
	ss := slotsOf["strict"]
	if len(ss) != 2 || ss[1] < 4 {
		t.Fatalf("strict slots %v; second subtask ran before its window", ss)
	}
	// A per-task false override under a global ERfair default works too.
	s2 := NewScheduler(1, PD2, Options{EarlyRelease: true})
	if err := s2.JoinEarlyRelease(task.MustNew("strict", 2, 8), nil, false); err != nil {
		t.Fatal(err)
	}
	slots2 := []int64{}
	s2.OnSlot(func(tt int64, assigned []Assignment) {
		for range assigned {
			slots2 = append(slots2, tt)
		}
	})
	s2.RunUntil(8)
	if len(slots2) != 2 || slots2[1] < 4 {
		t.Fatalf("override-to-strict slots %v", slots2)
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
// simulators and callers: Less/SubtaskRef, the Periodic model, and
// Processors.
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

	var p Periodic
	if p.Offset(5) != 0 || p.Earliness(5) != 0 {
		t.Error("Periodic model must be all zeros")
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

// TestJoinEarlyReleaseErrors: invalid and duplicate joins fail cleanly.
func TestJoinEarlyReleaseErrors(t *testing.T) {
	s := NewScheduler(1, PD2, Options{})
	if err := s.JoinEarlyRelease(&task.Task{Name: "bad", Cost: 0, Period: 2}, nil, true); err == nil {
		t.Error("invalid task accepted")
	}
	if err := s.JoinEarlyRelease(task.MustNew("A", 1, 2), nil, true); err != nil {
		t.Fatal(err)
	}
	if err := s.JoinEarlyRelease(task.MustNew("A", 1, 2), nil, false); err == nil {
		t.Error("duplicate accepted")
	}
	if err := s.JoinEarlyRelease(task.MustNew("B", 2, 3), nil, true); err == nil {
		t.Error("overload accepted")
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
