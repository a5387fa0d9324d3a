package edf

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pfair/internal/admission"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/rational"
	"pfair/internal/task"
)

func mustAdd(t *testing.T, s *Simulator, cfgs ...Config) {
	t.Helper()
	for _, c := range cfgs {
		if err := s.Add(c); err != nil {
			t.Fatalf("Add(%v): %v", c.Task, err)
		}
	}
}

// TestSingleTask: one task runs back-to-back jobs without preemptions.
func TestSingleTask(t *testing.T) {
	s := NewSimulator()
	mustAdd(t, s, Config{Task: task.MustNew("T", 2, 5)})
	s.Run(50)
	st := s.Stats()
	if st.Jobs != 10 || st.Completed != 10 {
		t.Fatalf("jobs=%d completed=%d, want 10/10", st.Jobs, st.Completed)
	}
	if st.Preemptions != 0 {
		t.Fatalf("preemptions = %d, want 0", st.Preemptions)
	}
	if len(st.Misses) != 0 {
		t.Fatalf("misses: %+v", st.Misses)
	}
}

// TestEDFOptimalUnderUnitUtilization: random sets with Σu ≤ 1 never miss.
func TestEDFOptimalUnderUnitUtilization(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		var set task.Set
		budget := rational.NewAcc()
		for i := 0; i < 8; i++ {
			p := int64(2 + r.Intn(40))
			e := int64(1 + r.Intn(int(p)))
			w := rational.New(e, p)
			if budget.Clone().Add(w).CmpInt(1) > 0 {
				continue
			}
			budget.Add(w)
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, p))
		}
		if len(set) == 0 {
			continue
		}
		if !Schedulable(set) {
			t.Fatal("constructed set should satisfy the utilization test")
		}
		s := NewSimulator()
		for _, tk := range set {
			mustAdd(t, s, Config{Task: tk})
		}
		h := set.Hyperperiod() * 2
		if h > 200000 {
			h = 200000
		}
		s.Run(h)
		if n := len(s.Stats().Misses); n != 0 {
			t.Fatalf("trial %d: EDF missed %d deadlines on %v (first %+v)",
				trial, n, set, s.Stats().Misses[0])
		}
	}
}

// TestOverloadMisses: Σu > 1 leads to misses (and EDF's domino behaviour —
// multiple tasks affected, per the Section 5.4 discussion of EDF under
// overload).
func TestOverloadMisses(t *testing.T) {
	s := NewSimulator()
	mustAdd(t, s,
		Config{Task: task.MustNew("A", 3, 5)},
		Config{Task: task.MustNew("B", 3, 5)},
	)
	s.Run(100)
	if len(s.Stats().Misses) == 0 {
		t.Fatal("overloaded EDF recorded no misses")
	}
	tasksMissed := map[string]bool{}
	for _, m := range s.Stats().Misses {
		tasksMissed[m.Task] = true
	}
	if len(tasksMissed) < 2 {
		t.Fatalf("expected the overload to spread across tasks, got %v", tasksMissed)
	}
}

// TestPreemptionsBoundedByJobs: "under EDF, the number of preemptions is at
// most the number of jobs" (Section 4).
func TestPreemptionsBoundedByJobs(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		var set task.Set
		budget := rational.NewAcc()
		for i := 0; i < 6; i++ {
			p := int64(2 + rr.Intn(30))
			e := int64(1 + rr.Intn(int(p)))
			w := rational.New(e, p)
			if budget.Clone().Add(w).CmpInt(1) > 0 {
				continue
			}
			budget.Add(w)
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, p))
		}
		if len(set) == 0 {
			return true
		}
		s := NewSimulator()
		for _, tk := range set {
			if err := s.Add(Config{Task: tk}); err != nil {
				return false
			}
		}
		s.Run(5000)
		st := s.Stats()
		return st.Preemptions <= st.Jobs && st.ContextSwitches <= 2*st.Jobs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMisbehavingTaskWithoutCBS: a job overrun steals time from an
// innocent task — EDF provides no temporal isolation.
func TestMisbehavingTaskWithoutCBS(t *testing.T) {
	s := NewSimulator()
	mustAdd(t, s,
		Config{
			Task: task.MustNew("rogue", 2, 10),
			// Every job actually runs 8 units instead of the declared 2.
			ActualCost: func(int64) int64 { return 8 },
		},
		Config{Task: task.MustNew("victim", 5, 10)},
	)
	s.Run(200)
	victimMissed := false
	for _, m := range s.Stats().Misses {
		if m.Task == "victim" {
			victimMissed = true
		}
	}
	if !victimMissed {
		t.Fatal("expected the victim to miss under an unisolated overrun")
	}
}

// TestCBSIsolation: the same overrun inside a CBS cannot hurt the victim;
// the excess is pushed into the rogue's own future bandwidth (Section 5.3).
func TestCBSIsolation(t *testing.T) {
	s := NewSimulator()
	mustAdd(t, s,
		Config{
			Task:       task.MustNew("rogue", 2, 10),
			ActualCost: func(int64) int64 { return 8 },
			Server:     &CBS{Budget: 2, Period: 10},
		},
		Config{Task: task.MustNew("victim", 5, 10)},
	)
	s.Run(2000)
	for _, m := range s.Stats().Misses {
		if m.Task == "victim" {
			t.Fatalf("victim missed despite CBS: %+v", m)
		}
	}
	if s.Stats().Postponements == 0 {
		t.Fatal("CBS never postponed a deadline; the overrun was not exercised")
	}
}

// TestCBSWellBehavedTaskUnaffected: a task that stays within its budget
// behaves as under plain EDF.
func TestCBSWellBehavedTaskUnaffected(t *testing.T) {
	run := func(server *CBS) Stats {
		s := NewSimulator()
		mustAdd(t, s,
			Config{Task: task.MustNew("A", 2, 10), Server: server},
			Config{Task: task.MustNew("B", 5, 10)},
		)
		s.Run(1000)
		return s.Stats()
	}
	plain := run(nil)
	served := run(&CBS{Budget: 2, Period: 10})
	if len(plain.Misses) != 0 || len(served.Misses) != 0 {
		t.Fatalf("unexpected misses: plain=%d served=%d", len(plain.Misses), len(served.Misses))
	}
	if served.Completed != plain.Completed {
		t.Fatalf("CBS changed completions: %d vs %d", served.Completed, plain.Completed)
	}
}

// TestHorizonPartialJob: a job cut by the horizon with a later deadline is
// not a miss; one with an earlier deadline is.
func TestHorizonPartialJob(t *testing.T) {
	s := NewSimulator()
	mustAdd(t, s, Config{Task: task.MustNew("T", 4, 10)})
	s.Run(2) // first job (deadline 10) still running
	if n := len(s.Stats().Misses); n != 0 {
		t.Fatalf("premature miss: %+v", s.Stats().Misses)
	}
	s2 := NewSimulator()
	mustAdd(t, s2,
		Config{Task: task.MustNew("T", 9, 10)},
		Config{Task: task.MustNew("U", 1, 10)},
	)
	s2.Run(2000)
	if n := len(s2.Stats().Misses); n != 0 {
		t.Fatalf("full-utilization pair missed: %+v", s2.Stats().Misses)
	}
}

// TestAddValidation: error paths.
func TestAddValidation(t *testing.T) {
	s := NewSimulator()
	if err := s.Add(Config{Task: &task.Task{Name: "bad", Cost: 0, Period: 5}}); err == nil {
		t.Error("invalid task accepted")
	}
	mustAdd(t, s, Config{Task: task.MustNew("A", 1, 2)})
	if err := s.Add(Config{Task: task.MustNew("A", 1, 3)}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := s.Add(Config{Task: task.MustNew("B", 1, 3), Server: &CBS{Budget: 0, Period: 3}}); err == nil {
		t.Error("invalid CBS accepted")
	}
	if err := s.Add(Config{Task: task.MustNew("C", 1, 3), Server: &CBS{Budget: 4, Period: 3}}); err == nil {
		t.Error("CBS with budget > period accepted")
	}
}

// TestRMRule: the RM rule queues jobs by period, admits through the
// hyperbolic bound, and runs no CBS; the EDF rule differs on each point.
func TestRMRule(t *testing.T) {
	// A's job (deadline 10) is running when B (period 8, deadline 13)
	// joins at 5: RM preempts A for the shorter period, EDF does not.
	for _, isRM := range rules {
		s := newSimulator(isRM, nil)
		mustAdd(t, s, Config{Task: task.MustNew("A", 6, 10)})
		if err := s.Engine().Run(5); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(admission.Join(task.MustNew("B", 1, 8))); err != nil {
			t.Fatalf("rm=%v: join B: %v", isRM, err)
		}
		if err := s.Run(10); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if isRM {
			want = 1
		}
		if st := s.Stats(); st.Preemptions != want || len(st.Misses) != 0 {
			t.Errorf("rm=%v: %d preemptions, %d misses; want %d and 0", isRM, st.Preemptions, len(st.Misses), want)
		}
	}

	// {1/2, 1/3} sits exactly on the hyperbolic bound, Π(uᵢ+1) = 2, so RM
	// refuses a 1/6 that fills EDF's Σu ≤ 1 exactly.
	for _, isRM := range rules {
		s := newSimulator(isRM, nil)
		for _, tk := range []*task.Task{task.MustNew("A", 1, 2), task.MustNew("B", 1, 3)} {
			if _, err := s.Submit(admission.Join(tk)); err != nil {
				t.Fatalf("rm=%v: join %v: %v", isRM, tk, err)
			}
		}
		_, err := s.Submit(admission.Join(task.MustNew("C", 1, 6)))
		if (err != nil) != isRM {
			t.Errorf("rm=%v: join C(1/6) returned %v", isRM, err)
		}
	}

	met := obs.NewSchedulerMetrics(nil)
	s := NewRMSimulator(engine.WithMetrics(met))
	if err := s.Add(Config{Task: task.MustNew("A", 1, 3), Server: &CBS{Budget: 1, Period: 3}}); err == nil {
		t.Error("RM accepted a CBS through Add")
	}
	if _, err := s.Submit(admission.JoinModel(task.MustNew("A", 1, 3), CBS{Budget: 1, Period: 3})); err == nil {
		t.Error("RM accepted a CBS join model")
	}
	if got := met.AdmissionRejects.Value(); got != 1 {
		t.Errorf("%d rejects counted, want 1", got)
	}
}

// TestDeterminism: identical runs produce identical stats.
func TestDeterminism(t *testing.T) {
	run := func() Stats {
		s := NewSimulator()
		mustAdd(t, s,
			Config{Task: task.MustNew("A", 1, 3)},
			Config{Task: task.MustNew("B", 2, 5)},
			Config{Task: task.MustNew("C", 1, 7)},
		)
		s.Run(10000)
		return s.Stats()
	}
	a, b := run(), run()
	if a.Jobs != b.Jobs || a.Preemptions != b.Preemptions || a.ContextSwitches != b.ContextSwitches || a.Invocations != b.Invocations {
		t.Fatalf("nondeterministic stats: %+v vs %+v", a, b)
	}
}

// TestMeasureOverhead: enabling measurement accumulates nonzero time and
// matching invocation counts.
func TestMeasureOverhead(t *testing.T) {
	s := NewSimulator()
	s.MeasureOverhead(true)
	mustAdd(t, s, Config{Task: task.MustNew("A", 1, 2)}, Config{Task: task.MustNew("B", 1, 4)})
	s.Run(100000)
	st := s.Stats()
	if st.Invocations == 0 {
		t.Fatal("no invocations recorded")
	}
	if st.SchedulingTime <= 0 {
		t.Fatal("no scheduling time recorded")
	}
}
