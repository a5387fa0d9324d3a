package core

import (
	"fmt"
	"testing"

	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/parallel"
	"pfair/internal/task"
	"pfair/internal/taskgen"
)

// The experiment harness drives many Scheduler instances from a worker
// pool, so the scheduler must be (a) allocation-free per slot in steady
// state — the paper's Figure 2 y-axis is per-invocation cost, and
// allocator noise inflates exactly that measurement — and (b) free of
// hidden shared state between instances, which go test -race checks while
// the invariant test below runs schedulers concurrently.

// newLoadedScheduler builds a scheduler with a feasible random workload.
func newLoadedScheduler(tb testing.TB, m, n int, util float64, seed int64) *Scheduler {
	tb.Helper()
	g := taskgen.New(seed)
	set, err := g.Set("T", n, util, taskgen.DefaultPeriodsSlots)
	if err != nil {
		tb.Fatalf("taskgen: %v", err)
	}
	s := NewScheduler(m, PD2, Options{})
	for _, t := range set {
		if err := s.Join(t); err != nil {
			// Rounding can push the total marginally over m; skip.
			continue
		}
	}
	if len(s.Tasks()) == 0 {
		tb.Fatal("no tasks admitted")
	}
	return s
}

// TestStepSteadyStateZeroAllocs pins the zero-allocation hot path: after
// warm-up (scratch and queue capacities settled), Step must not allocate.
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	for _, alg := range []Algorithm{PD2, PD, EPDF} {
		s := newLoadedScheduler(t, 2, 100, 1.9, 42)
		s.alg = alg // field write before any Step; comparator reads it lazily
		s.RunUntil(2000)
		allocs := testing.AllocsPerRun(500, func() { s.Step() })
		if allocs != 0 {
			t.Errorf("%v: Step allocates %v times per slot in steady state, want 0", alg, allocs)
		}
	}
}

// BenchmarkStepAllocs measures the steady-state cost of one Step and
// enforces the 0 allocs/op invariant dynamically. It is the runtime
// counterpart of the static hotpath analyzer (internal/lint): the
// analyzer pins allocation *sources* at the offending line, while this
// benchmark catches allocations the analyzer's per-function syntactic
// rules cannot see, such as interface boxing inside callees.
func BenchmarkStepAllocs(b *testing.B) {
	s := newLoadedScheduler(b, 2, 100, 1.9, 42)
	s.RunUntil(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() { s.Step() }); allocs != 0 {
		b.Fatalf("Step allocates %v/op in steady state, want 0", allocs)
	}
}

// BenchmarkStepAllocsObserved is BenchmarkStepAllocs with a live trace
// recorder and metrics block attached: the observability layer's contract
// is that observation changes what is *recorded*, never what is
// *allocated*. The recorder's ring buffer and the metrics instruments are
// preallocated, so the observed hot path must also be 0 allocs/op.
func BenchmarkStepAllocsObserved(b *testing.B) {
	s := newLoadedScheduler(b, 2, 100, 1.9, 42)
	s.Observe(obs.NewRecorder(obs.DefaultRingCapacity), obs.NewSchedulerMetrics(nil))
	s.RunUntil(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() { s.Step() }); allocs != 0 {
		b.Fatalf("observed Step allocates %v/op in steady state, want 0", allocs)
	}
	if s.Engine().Recorder().Total() == 0 {
		b.Fatal("recorder attached but no events recorded")
	}
}

// TestStepObservedZeroAllocs is the test-mode twin of
// BenchmarkStepAllocsObserved, so `go test` alone (CI tier 1) catches an
// allocating emission site without running benchmarks. The second case
// runs 300 tasks at M=16, so the release bitset spans five words, and
// admits one more task after warm-up, right before the measured steps.
func TestStepObservedZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		m, n int
		util float64
		join bool
	}{
		{2, 100, 1.9, false},
		{16, 300, 12, true},
	} {
		s := newLoadedScheduler(t, tc.m, tc.n, tc.util, 42)
		s.Observe(obs.NewRecorder(1<<12), obs.NewSchedulerMetrics(nil))
		s.RunUntil(2000)
		if tc.join {
			if err := s.Join(task.MustNew("late", 1, 10)); err != nil {
				t.Fatalf("join: %v", err)
			}
			if words := len(s.relBits); words < 5 {
				t.Fatalf("%d tasks fill %d bitset words, want ≥ 5", len(s.order), words)
			}
		}
		if allocs := testing.AllocsPerRun(500, func() { s.Step() }); allocs != 0 {
			t.Errorf("m=%d n=%d: observed Step allocates %v/op in steady state, want 0", tc.m, tc.n, allocs)
		}
		if s.Engine().Recorder().Total() == 0 {
			t.Fatalf("m=%d n=%d: recorder attached but no events recorded", tc.m, tc.n)
		}
	}
}

// BenchmarkReleaseBurstObserved measures the observed Step on 1,000
// synchronous unit-cost tasks at M=16: periods 60 and 120, so every 60th
// slot releases 500 subtasks and every 120th all 1,000, each emitted as
// an EvRelease in task-id order. One op is one slot.
func BenchmarkReleaseBurstObserved(b *testing.B) {
	s := NewScheduler(16, PD2, Options{})
	for i := 0; i < 1000; i++ {
		if err := s.Join(task.MustNew(fmt.Sprintf("T%d", i), 1, int64(60*(1+i%2)))); err != nil {
			b.Fatalf("join: %v", err)
		}
	}
	s.Observe(obs.NewRecorder(obs.DefaultRingCapacity), nil)
	s.RunUntil(240)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// profiledScheduler builds a loaded scheduler with every observability
// attachment live at once: a phase profiler sampling every 4th step, a
// trace recorder with a per-task accounting table behind it, and a
// metrics block. This is the worst-case instrumented configuration.
func profiledScheduler(tb testing.TB) *Scheduler {
	tb.Helper()
	g := taskgen.New(42)
	set, err := g.Set("T", 100, 1.9, taskgen.DefaultPeriodsSlots)
	if err != nil {
		tb.Fatalf("taskgen: %v", err)
	}
	prof := obs.NewPhaseProfiler(nil, 4)
	s := NewScheduler(2, PD2, Options{}, engine.WithProfiler(prof))
	for _, t := range set {
		if err := s.Join(t); err != nil {
			continue
		}
	}
	if len(s.Tasks()) == 0 {
		tb.Fatal("no tasks admitted")
	}
	rec := obs.NewRecorder(1 << 12)
	rec.SetAccounting(obs.NewAccounting())
	s.Observe(rec, obs.NewSchedulerMetrics(nil))
	return s
}

// BenchmarkStepAllocsProfiled is BenchmarkStepAllocsObserved with the
// engine phase profiler sampling every 4th step and a per-task
// accounting table consuming the event stream. The profiler's histograms
// and the accounting table's dense rows are preallocated during warm-up,
// so even the fully instrumented hot path must stay 0 allocs/op.
func BenchmarkStepAllocsProfiled(b *testing.B) {
	s := profiledScheduler(b)
	s.RunUntil(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, func() { s.Step() }); allocs != 0 {
		b.Fatalf("profiled Step allocates %v/op in steady state, want 0", allocs)
	}
	if s.eng.Profiler().Samples.Value() == 0 {
		b.Fatal("profiler attached but no samples taken")
	}
}

// TestStepProfiledZeroAllocs is the test-mode twin of
// BenchmarkStepAllocsProfiled for CI tier 1.
func TestStepProfiledZeroAllocs(t *testing.T) {
	s := profiledScheduler(t)
	s.RunUntil(2000)
	if allocs := testing.AllocsPerRun(500, func() { s.Step() }); allocs != 0 {
		t.Fatalf("profiled Step allocates %v/op in steady state, want 0", allocs)
	}
	prof := s.eng.Profiler()
	if prof.Samples.Value() == 0 {
		t.Fatal("profiler attached but no samples taken")
	}
	// Every sample brackets all five phases exactly once.
	for name, h := range map[string]*obs.Histogram{
		"release": prof.Release, "pick": prof.Pick, "dispatch": prof.Dispatch,
		"account": prof.Account, "next": prof.Next,
	} {
		if h.Count() != prof.Samples.Value() {
			t.Errorf("phase %s has %d observations, want one per sample (%d)", name, h.Count(), prof.Samples.Value())
		}
	}
	acct := s.Engine().Recorder().Accounting()
	if acct == nil || acct.Events() == 0 {
		t.Fatal("accounting table attached but consumed no events")
	}
}

// TestStepInvariantsConcurrent runs independent schedulers from a worker
// pool — the parallel harness's usage pattern — and checks per-slot
// structural invariants plus stats monotonicity on each. Run under
// go test -race this doubles as the harness's data-race regression test.
func TestStepInvariantsConcurrent(t *testing.T) {
	const trials = 8
	errs := make([]string, trials)
	parallel.For(4, trials, func(trial int) {
		fail := func(msg string) {
			if errs[trial] == "" {
				errs[trial] = msg
			}
		}
		s := newLoadedScheduler(t, 4, 16, 3.5, taskgen.SubSeed(99, int64(trial)))
		m := s.Processors()
		var prev Stats
		for slot := int64(0); slot < 2000; slot++ {
			assigned := s.Step()
			if len(assigned) > m {
				fail("more assignments than processors")
			}
			procSeen := map[int]bool{}
			taskSeen := map[int]bool{}
			for _, a := range assigned {
				if a.Proc < 0 || a.Proc >= m {
					fail("assignment to a nonexistent processor")
				}
				if procSeen[a.Proc] {
					fail("two tasks on one processor in one slot")
				}
				if taskSeen[a.Task] {
					fail("one task on two processors in one slot")
				}
				procSeen[a.Proc] = true
				taskSeen[a.Task] = true
			}
			st := s.Stats()
			if st.Slots != prev.Slots+1 {
				fail("Slots not incremented by exactly one")
			}
			if st.Allocations != prev.Allocations+int64(len(assigned)) {
				fail("Allocations out of step with assignments")
			}
			if st.ContextSwitches < prev.ContextSwitches ||
				st.Migrations < prev.Migrations ||
				st.Preemptions < prev.Preemptions ||
				len(st.Misses) < len(prev.Misses) {
				fail("stats counter decreased")
			}
			prev = st
		}
		if len(prev.Misses) != 0 {
			fail("feasible set missed a deadline")
		}
	})
	for trial, msg := range errs {
		if msg != "" {
			t.Errorf("trial %d: %s", trial, msg)
		}
	}
}
