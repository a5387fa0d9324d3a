package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// randomFeasibleSet draws a task set with total weight ≤ m and small
// periods (so hyperperiods stay testable).
func randomFeasibleSet(r *rand.Rand, m int, maxTasks int, maxPeriod int64) task.Set {
	var set task.Set
	budget := rational.NewAcc()
	for i := 0; i < maxTasks; i++ {
		p := int64(1 + r.Intn(int(maxPeriod)))
		e := int64(1 + r.Intn(int(p)))
		w := rational.New(e, p)
		if budget.Clone().Add(w).CmpInt(int64(m)) > 0 {
			continue
		}
		budget.Add(w)
		set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, p))
	}
	return set
}

// lagChecker verifies the Pfair condition −1 < lag < 1 after every slot for
// synchronous periodic tasks that join in set order, so set[id] is the
// task with that id.
type lagChecker struct {
	t     *testing.T
	set   task.Set
	pats  []*Pattern
	alloc []int64
}

func newLagChecker(t *testing.T, set task.Set) *lagChecker {
	lc := &lagChecker{t: t, set: set, alloc: make([]int64, len(set))}
	for _, tk := range set {
		lc.pats = append(lc.pats, NewPattern(tk.Cost, tk.Period))
	}
	return lc
}

func (lc *lagChecker) onSlot(t int64, assigned []Assignment) {
	for _, a := range assigned {
		lc.alloc[a.Task]++
	}
	one := rational.One()
	for id, pt := range lc.pats {
		lag := pt.Lag(t+1, lc.alloc[id])
		if !lag.Less(one) || !one.Neg().Less(lag) {
			lc.t.Errorf("task %s lag %v at time %d violates (-1, 1)", lc.set[id].Name, lag, t+1)
		}
	}
}

func runToHyperperiod(t *testing.T, s *Scheduler, set task.Set, periods int64) Stats {
	t.Helper()
	h := set.Hyperperiod() * periods
	if h > 100000 {
		h = 100000
	}
	s.RunUntil(h)
	s.FinishMisses(h)
	return s.Stats()
}

// TestOptimalAlgorithmsNoMisses: PD², PD, and PF schedule every feasible
// periodic set with zero deadline misses and the Pfair lag invariant intact.
func TestOptimalAlgorithmsNoMisses(t *testing.T) {
	algs := []Algorithm{PD2, PD, PF}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			for trial := 0; trial < 25; trial++ {
				m := 1 + r.Intn(4)
				set := randomFeasibleSet(r, m, 3+r.Intn(6), 12)
				if len(set) == 0 {
					continue
				}
				s := NewScheduler(m, alg, Options{})
				lc := newLagChecker(t, set)
				s.OnSlot(lc.onSlot)
				for _, tk := range set {
					if err := s.Join(tk); err != nil {
						t.Fatalf("join %v: %v", tk, err)
					}
				}
				stats := runToHyperperiod(t, s, set, 3)
				if len(stats.Misses) != 0 {
					t.Fatalf("trial %d (m=%d, set=%v): %s missed %d deadlines, first %+v",
						trial, m, set, alg, len(stats.Misses), stats.Misses[0])
				}
			}
		})
	}
}

// TestFullUtilizationSchedulable: the classic partitioning counterexample —
// three tasks of weight 2/3 on two processors — is schedulable by PD²
// (Section 3's motivating example), and so are other full-utilization sets.
func TestFullUtilizationSchedulable(t *testing.T) {
	sets := []task.Set{
		{task.MustNew("A", 2, 3), task.MustNew("B", 2, 3), task.MustNew("C", 2, 3)},
		{task.MustNew("A", 1, 2), task.MustNew("B", 1, 2), task.MustNew("C", 1, 2), task.MustNew("D", 1, 2)},
		{task.MustNew("A", 3, 4), task.MustNew("B", 3, 4), task.MustNew("C", 1, 2)},
		{task.MustNew("A", 8, 11), task.MustNew("B", 3, 11), task.MustNew("C", 5, 11), task.MustNew("D", 6, 11)},
	}
	for _, set := range sets {
		m := set.MinProcessors()
		if !set.Feasible(m) {
			t.Fatalf("set %v infeasible on %d procs", set, m)
		}
		s := NewScheduler(m, PD2, Options{})
		lc := newLagChecker(t, set)
		s.OnSlot(lc.onSlot)
		for _, tk := range set {
			if err := s.Join(tk); err != nil {
				t.Fatalf("join: %v", err)
			}
		}
		stats := runToHyperperiod(t, s, set, 4)
		if len(stats.Misses) != 0 {
			t.Errorf("PD2 missed on full-utilization set %v: %+v", set, stats.Misses[0])
		}
	}
}

// TestEPDFNotOptimal: earliest-pseudo-deadline-first without tie-breaks
// misses deadlines on a feasible fully-utilized set (which is why the PD²
// tie-breaks exist), while PD², PD, and PF schedule the very same set
// cleanly. The set was found by randomized search and is pinned for
// regression: eight tasks with total weight exactly 5 on five processors.
func TestEPDFNotOptimal(t *testing.T) {
	set := task.Set{
		task.MustNew("T0", 4, 9), task.MustNew("T1", 3, 6), task.MustNew("T2", 1, 2),
		task.MustNew("T3", 8, 9), task.MustNew("T4", 6, 10), task.MustNew("T5", 3, 6),
		task.MustNew("T6", 9, 10), task.MustNew("T7", 2, 3),
	}
	const m = 5
	if set.TotalWeight().CmpInt(m) != 0 {
		t.Fatalf("counterexample no longer fully utilizes %d processors", m)
	}
	run := func(alg Algorithm) Stats {
		s := NewScheduler(m, alg, Options{})
		for _, tk := range set {
			if err := s.Join(tk); err != nil {
				t.Fatalf("join: %v", err)
			}
		}
		return runToHyperperiod(t, s, set, 2)
	}
	if misses := run(EPDF).Misses; len(misses) == 0 {
		t.Error("EPDF scheduled the pinned counterexample; expected a miss")
	}
	for _, alg := range []Algorithm{PD2, PD, PF} {
		if misses := run(alg).Misses; len(misses) != 0 {
			t.Errorf("%s missed on the feasible counterexample: %+v", alg, misses[0])
		}
	}
}

// TestERfairNoMissesAndWorkConserving: ERfair-PD² still meets all deadlines
// and never idles a processor while eligible work exists.
func TestERfairNoMissesAndWorkConserving(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		m := 1 + r.Intn(3)
		set := randomFeasibleSet(r, m, 6, 10)
		if len(set) == 0 {
			continue
		}
		s := NewScheduler(m, PD2, Options{EarlyRelease: true})
		for _, tk := range set {
			if err := s.Join(tk); err != nil {
				t.Fatalf("join: %v", err)
			}
		}
		h := set.Hyperperiod() * 2
		if h > 50000 {
			h = 50000
		}
		for s.Now() < h {
			assigned := s.Step()
			// Work conservation: if a processor idled, the ready queue
			// must have been empty after selection.
			if len(assigned) < m && s.ready.Len() > 0 {
				t.Fatalf("trial %d: processor idle at t=%d with %d ready subtasks", trial, s.Now()-1, s.ready.Len())
			}
		}
		s.FinishMisses(h)
		if n := len(s.Stats().Misses); n != 0 {
			t.Fatalf("trial %d: ERfair missed %d deadlines on %v", trial, n, set)
		}
	}
}

// TestPfairNotWorkConserving: under plain Pfair a subtask that ran early
// leaves its task ineligible until the next window, so a lone task of
// weight 1/2 on one processor idles every other slot even though it has
// future work.
func TestPfairNotWorkConserving(t *testing.T) {
	s := NewScheduler(1, PD2, Options{})
	if err := s.Join(task.MustNew("T", 1, 2)); err != nil {
		t.Fatal(err)
	}
	busy := 0
	for s.Now() < 10 {
		if len(s.Step()) > 0 {
			busy++
		}
	}
	if busy != 5 {
		t.Fatalf("weight-1/2 task got %d slots of 10, want exactly 5", busy)
	}
	// With early release the same task runs every slot.
	s2 := NewScheduler(1, PD2, Options{EarlyRelease: true})
	if err := s2.Join(task.MustNew("T", 5, 10)); err != nil {
		t.Fatal(err)
	}
	busy2 := 0
	for s2.Now() < 10 {
		if len(s2.Step()) > 0 {
			busy2++
		}
	}
	// Subtasks 1..5 of the first job release eagerly; the job boundary
	// still gates subtask 6 to t=10. 5 busy slots then idle.
	if busy2 != 5 {
		t.Fatalf("ERfair 5/10 task got %d busy slots in first period, want 5", busy2)
	}
	// But they must be the FIRST five slots (work conserving).
	s3 := NewScheduler(1, PD2, Options{EarlyRelease: true})
	if err := s3.Join(task.MustNew("T", 5, 10)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if len(s3.Step()) != 1 {
			t.Fatalf("ERfair idled at slot %d with eligible work", i)
		}
	}
	if len(s3.Step()) != 0 {
		t.Fatal("ERfair ran a 6th subtask before the second job released")
	}
}

// TestWeightOneTaskRunsEverySlot: a weight-1 task occupies a processor in
// every slot and never migrates under affinity.
func TestWeightOneTaskRunsEverySlot(t *testing.T) {
	set := task.Set{task.MustNew("full", 3, 3), task.MustNew("half", 1, 2)}
	s := NewScheduler(2, PD2, Options{})
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatal(err)
		}
	}
	fullSlots := int64(0)
	s.OnSlot(func(tt int64, assigned []Assignment) {
		for _, a := range assigned {
			if s.Name(a.Task) == "full" {
				fullSlots++
			}
		}
	})
	s.RunUntil(60)
	if fullSlots != 60 {
		t.Fatalf("weight-1 task ran %d of 60 slots", fullSlots)
	}
	if mg := s.Stats().Migrations; mg != 0 {
		t.Fatalf("migrations = %d, want 0 for this set", mg)
	}
	if len(s.Stats().Misses) != 0 {
		t.Fatal("unexpected misses")
	}
}

// TestPreemptionBound: the paper's example — a task with period 6 and cost
// 5 has only one unscheduled quantum per period, so each job suffers at
// most one preemption (min(E−1, P−E) = 1).
func TestPreemptionBound(t *testing.T) {
	s := NewScheduler(1, PD2, Options{})
	if err := s.Join(task.MustNew("T", 5, 6)); err != nil {
		t.Fatal(err)
	}
	const jobs = 50
	s.RunUntil(6 * jobs)
	if p := s.Stats().Preemptions; p > jobs {
		t.Fatalf("preemptions = %d over %d jobs, bound is 1/job", p, jobs)
	}
	if len(s.Stats().Misses) != 0 {
		t.Fatal("unexpected misses")
	}
}

// TestDeterminism: identical runs produce identical traces — every
// assignment, every Decision and the final task set and Σwt — for a
// static set and under churn: a mid-run join, reweights up and down, a
// leave, and a leave that lands on a pending reweight.
func TestDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	static := randomFeasibleSet(r, 3, 8, 15)
	churn := []churnStep{
		{20, admission.Join(task.MustNew("D", 1, 5))},
		{30, admission.Reweight("C", 1, 2)},
		{40, admission.Reweight("B", 1, 3)},
		{60, admission.Leave("A")},
		{70, admission.Reweight("D", 2, 5)},
		{70, admission.Leave("D")},
	}
	for _, c := range []struct {
		name  string
		m     int
		set   task.Set
		steps []churnStep
	}{
		{"static", 3, static, nil},
		{"churn", 2, task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 2, 3), task.MustNew("C", 1, 4)}, churn},
	} {
		trace := func() string {
			var out strings.Builder
			s, ds, errs := runChurn(c.m, c.set, c.steps, 2000, func(tt int64, assigned []Assignment) {
				for _, a := range assigned {
					fmt.Fprintf(&out, "%d:%d=%d/%d;", tt, a.Proc, a.Task, a.Subtask)
				}
			})
			for i, d := range ds {
				if errs[i] != nil {
					t.Fatalf("%s: request %d refused: %v", c.name, i, errs[i])
				}
				fmt.Fprintf(&out, "%v;", d)
			}
			fmt.Fprintf(&out, "%v %v", s.Tasks(), s.TotalWeight())
			return out.String()
		}
		if a, b := trace(), trace(); a != b {
			t.Fatalf("%s: identical runs produced different traces", c.name)
		}
	}
}

// TestNoParallelism: a task is never scheduled on two processors in the
// same slot (Section 2: "migration is allowed but parallelism is not").
func TestNoParallelism(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	set := randomFeasibleSet(r, 4, 10, 9)
	s := NewScheduler(4, PD2, Options{EarlyRelease: true})
	s.OnSlot(func(tt int64, assigned []Assignment) {
		seen := map[int]bool{}
		for _, a := range assigned {
			if seen[a.Task] {
				t.Fatalf("task %s scheduled twice in slot %d", s.Name(a.Task), tt)
			}
			seen[a.Task] = true
		}
	})
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(5000)
}

// TestSubtasksInWindows: in a plain Pfair run every allocation lands inside
// the subtask's window [r, d).
func TestSubtasksInWindows(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	set := randomFeasibleSet(r, 2, 6, 11)
	var pats []*Pattern // indexed by id: the set joins in order
	for _, tk := range set {
		pats = append(pats, NewPattern(tk.Cost, tk.Period))
	}
	s := NewScheduler(2, PD2, Options{})
	s.OnSlot(func(tt int64, assigned []Assignment) {
		for _, a := range assigned {
			pt := pats[a.Task]
			if tt < pt.Release(a.Subtask) || tt >= pt.Deadline(a.Subtask) {
				t.Fatalf("subtask %s/%d scheduled at %d outside window [%d,%d)",
					s.Name(a.Task), a.Subtask, tt, pt.Release(a.Subtask), pt.Deadline(a.Subtask))
			}
		}
	})
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(3000)
	if len(s.Stats().Misses) != 0 {
		t.Fatal("unexpected misses")
	}
}

// TestJoinRejectsOverload: Equation (2) gates admission.
func TestJoinRejectsOverload(t *testing.T) {
	s := NewScheduler(2, PD2, Options{})
	if err := s.Join(task.MustNew("A", 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(task.MustNew("B", 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(task.MustNew("C", 1, 2)); err != nil {
		t.Fatal(err) // exactly fills 2.0
	}
	if err := s.Join(task.MustNew("D", 1, 1000)); err == nil {
		t.Fatal("join above capacity was accepted")
	}
	if err := s.Join(task.MustNew("A", 1, 1000)); err == nil {
		t.Fatal("duplicate name was accepted")
	}
}

// TestAffinityReducesMigrations compares migration counts with and without
// the affinity assignment pass on the same workload.
func TestAffinityReducesMigrations(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	set := randomFeasibleSet(r, 4, 10, 12)
	run := func(noAff bool) int64 {
		s := NewScheduler(4, PD2, Options{NoAffinity: noAff})
		for _, tk := range set {
			if err := s.Join(tk); err != nil {
				t.Fatal(err)
			}
		}
		s.RunUntil(20000)
		return s.Stats().Migrations
	}
	with, without := run(false), run(true)
	if with > without {
		t.Fatalf("affinity increased migrations: %d with vs %d without", with, without)
	}
}
