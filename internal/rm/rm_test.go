package rm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pfair/internal/admission"
	"pfair/internal/edf"
	"pfair/internal/task"
)

// simulate runs set on the RM simulator from the synchronous critical
// instant up to horizon.
func simulate(t *testing.T, set task.Set, horizon int64) edf.Stats {
	t.Helper()
	s := edf.NewRMSimulator()
	for _, tk := range set {
		if err := s.Add(edf.Config{Task: tk}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return s.Stats()
}

// schedulable applies the exact response-time test.
func schedulable(set task.Set) bool {
	_, ok := ResponseTimes(set)
	return ok
}

func TestLiuLaylandBound(t *testing.T) {
	if got := LiuLaylandBound(1); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("LL(1) = %v, want 1", got)
	}
	if got := LiuLaylandBound(2); math.Abs(got-2*(math.Sqrt2-1)) > 1e-12 {
		t.Errorf("LL(2) = %v, want 2(√2−1)", got)
	}
	if got := LiuLaylandBound(1000); math.Abs(got-math.Ln2) > 1e-3 {
		t.Errorf("LL(1000) = %v, want ≈ ln 2", got)
	}
	if got := LiuLaylandBound(0); got != 0 {
		t.Errorf("LL(0) = %v, want 0", got)
	}
}

func TestBoundsOnClassicExamples(t *testing.T) {
	// The canonical Liu–Layland example: u = 0.5 + 0.25 + 0.25... a set
	// at exactly the n=2 bound is schedulable.
	set := task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 2, 5)} // u = 0.9
	if SchedulableLL(set) {
		t.Error("0.9 should exceed the n=2 LL bound (0.828)")
	}
	// But the exact test accepts it: R_A = 1, R_B = 2 + ceil(R/2)*1 →
	// R=4: 2+2=4 ✤ fits in 5.
	if !schedulable(set) {
		t.Error("exact test should accept {1/2, 2/5}")
	}
	// Hyperbolic is between LL and exact: (1.5)(1.4) = 2.1 > 2 → reject.
	if admission.Hyperbolic(set, nil) == nil {
		t.Error("hyperbolic should reject this set")
	}
}

func TestResponseTimes(t *testing.T) {
	// Worked example: tasks (1,4), (2,6), (3,13) in RM order.
	set := task.Set{task.MustNew("A", 1, 4), task.MustNew("B", 2, 6), task.MustNew("C", 3, 13)}
	resp, ok := ResponseTimes(set)
	if !ok {
		t.Fatal("set should be schedulable")
	}
	// R_A = 1. R_B = 2 + ceil(R/4)*1 → R = 3. R_C: 3 + ceil(R/4) + 2*ceil(R/6):
	// start 3 → 3+1+2=6 → 3+2+2=7 → 3+2+4=9 → 3+3+4=10 → 3+3+4=10 ✓
	want := []int64{1, 3, 10}
	for i := range want {
		if resp[i] != want[i] {
			t.Errorf("R[%d] = %d, want %d", i, resp[i], want[i])
		}
	}
}

func TestUnschedulableExact(t *testing.T) {
	// {3/6, 4/9}: u ≈ 0.944 ≤ 1 (EDF-schedulable) but RM-infeasible:
	// R_B = 4 + ⌈R/6⌉·3 diverges past 9.
	set := task.Set{task.MustNew("A", 3, 6), task.MustNew("B", 4, 9)}
	resp, ok := ResponseTimes(set)
	if ok {
		t.Fatal("expected unschedulable")
	}
	if resp[1] != -1 {
		t.Errorf("diverging response = %d, want -1", resp[1])
	}
}

func TestHarmonicFullUtilization(t *testing.T) {
	// Harmonic periods allow 100% utilization under RM.
	set := task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 1, 4), task.MustNew("C", 2, 8)}
	if !schedulable(set) {
		t.Error("harmonic full-utilization set should pass the exact test")
	}
	if SchedulableLL(set) {
		t.Error("the LL bound cannot accept utilization 1")
	}
}

// TestSimulatorMatchesSingleTask sanity-checks the simulator.
func TestSimulatorMatchesSingleTask(t *testing.T) {
	set := task.Set{task.MustNew("T", 2, 5)}
	st := simulate(t, set, 50)
	if st.Jobs != 10 || st.Completed != 10 || len(st.Misses) != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestQuickExactTestMatchesSimulation: the response-time analysis agrees
// with simulating one hyperperiod from the synchronous critical instant.
func TestQuickExactTestMatchesSimulation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		var set task.Set
		for i := 0; i < n; i++ {
			p := int64(2 + r.Intn(16))
			e := int64(1 + r.Intn(int(p)))
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, p))
		}
		if set.TotalUtilization() > 1.2 {
			return true // hopeless overloads make hyperperiod runs slow
		}
		analytic := schedulable(set)
		h := set.Hyperperiod()
		if h > 100000 {
			return true
		}
		simulated := len(simulate(t, set, h).Misses) == 0
		if analytic != simulated {
			t.Logf("set %v: analytic=%v simulated=%v", set, analytic, simulated)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickBoundHierarchy: LL ⊆ hyperbolic ⊆ exact — a set accepted by a
// weaker test is accepted by every stronger one.
func TestQuickBoundHierarchy(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		var set task.Set
		for i := 0; i < n; i++ {
			p := int64(2 + r.Intn(40))
			e := int64(1 + r.Intn(int(p)))
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, p))
		}
		ll := SchedulableLL(set)
		hyp := admission.Hyperbolic(set, nil) == nil
		exact := schedulable(set)
		if ll && !hyp {
			return false
		}
		if hyp && !exact {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickPreemptionsBounded: fixed-priority preemptions are bounded by
// the number of higher-priority job releases.
func TestQuickPreemptionsBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var set task.Set
		u := 0.0
		for i := 0; i < 4; i++ {
			p := int64(2 + r.Intn(20))
			e := int64(1 + r.Intn(int(p)))
			if u+float64(e)/float64(p) > 1 {
				continue
			}
			u += float64(e) / float64(p)
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, p))
		}
		if len(set) == 0 {
			return true
		}
		st := simulate(t, set, 4000)
		return st.Preemptions <= st.Jobs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
