package rm

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/calq"
	"pfair/internal/task"
)

// nameLess is RM priority spelled with the task name, as the ready queue
// compared jobs before tie-breaks became integer ranks: (period, Name,
// index). The tests hold the rank-ordered queue to it.
func nameLess(a, b *job) bool {
	if a.ts.t.Period != b.ts.t.Period {
		return a.ts.t.Period < b.ts.t.Period
	}
	if a.ts.t.Name != b.ts.t.Name {
		return a.ts.t.Name < b.ts.t.Name
	}
	return a.index < b.index
}

// checkPriorityMin fails unless the running job is the nameLess-minimum
// of running ∪ ready and the ready queue pops in nameLess order.
func checkPriorityMin(t *testing.T, s *Simulator) {
	t.Helper()
	var ready []*job
	s.ready.Retain(func(j *job) bool {
		ready = append(ready, j)
		return true
	})
	if !sort.SliceIsSorted(ready, func(i, k int) bool { return nameLess(ready[i], ready[k]) }) {
		t.Fatalf("t=%d: ready queue does not pop in (period, Name, index) order", s.now)
	}
	if len(ready) == 0 {
		return
	}
	if s.running == nil {
		t.Fatalf("t=%d: processor idle with %d ready jobs", s.now, len(ready))
	}
	if top := ready[0]; !nameLess(s.running, top) {
		t.Fatalf("t=%d: running %s#%d but %s#%d is ready",
			s.now, s.running.ts.t.Name, s.running.index, top.ts.t.Name, top.index)
	}
}

// stepChecked steps s until the engine clock reaches until, checking the
// dispatch invariant after every step.
func stepChecked(t *testing.T, s *Simulator, until int64) {
	t.Helper()
	for s.eng.Now() < until {
		s.eng.Step()
		checkPriorityMin(t, s)
	}
}

// TestDispatchIsPriorityMin: after every engine step the running job is
// the minimum of running ∪ ready under the string comparator the rank
// order replaces. Task names T0…T13 sort differently as strings and as
// numbers (T10 < T2), periods come from a short menu so priorities tie
// often, and the sets are left unchecked, so many overload and queue
// several jobs of one task. The churn subtest drives joins, a leave and a
// reweight through Submit, which renumber the ranks of tasks with jobs
// still queued.
func TestDispatchIsPriorityMin(t *testing.T) {
	periods := []int64{4, 6, 8, 12, 16, 24}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			var set task.Set
			n := 8 + r.Intn(7)
			for _, i := range r.Perm(n) {
				p := periods[r.Intn(len(periods))]
				set = append(set, task.MustNew(fmt.Sprintf("T%d", i), 1+r.Int63n(p/2), p))
			}
			stepChecked(t, NewSimulator(set), 400)
		})
	}

	t.Run("churn", func(t *testing.T) {
		s := NewSimulator(task.Set{
			task.MustNew("T1", 1, 8), task.MustNew("T2", 1, 12), task.MustNew("T9", 1, 16),
		})
		script := []struct {
			at  int64
			req admission.Request
		}{
			{40, admission.Join(task.MustNew("T10", 1, 8))},
			{40, admission.Join(task.MustNew("T11", 1, 12))},
			{91, admission.Leave("T2")},
			{130, admission.Reweight("T10", 2, 12)},
			{170, admission.Join(task.MustNew("T3", 1, 8))},
		}
		for _, op := range script {
			stepChecked(t, s, op.at)
			if _, err := s.Submit(op.req); err != nil {
				t.Fatalf("t=%d %+v: %v", op.at, op.req, err)
			}
			for i, ts := range s.byName {
				if ts.rank != i || (i > 0 && s.byName[i-1].t.Name >= ts.t.Name) {
					t.Fatalf("t=%d: rank %d holds %s with rank %d", op.at, i, ts.t.Name, ts.rank)
				}
			}
		}
		stepChecked(t, s, 300)
	})
}

// TestLongPeriodBeyondSpanCap: a period past calq.DefaultSpanCap next to
// short ones keeps every timer in the one release wheel, whose span is
// capped, so the long timer shares buckets with other rounds. The
// RM-schedulable set must miss nothing, release exactly the jobs due
// before the horizon, and keep the dispatch invariant at every step; a
// mid-run join of a second long-period task takes the same path.
func TestLongPeriodBeyondSpanCap(t *testing.T) {
	const long = 20000
	if long <= calq.DefaultSpanCap {
		t.Fatalf("period %d no longer exceeds the span cap %d", long, calq.DefaultSpanCap)
	}
	set := task.Set{
		task.MustNew("T2", 2, 10), task.MustNew("T10", 4, 20), task.MustNew("T1", 8, 40),
		task.MustNew("T100", 1000, long),
	}
	late := task.MustNew("T3", 1500, 3*long/2)
	if !Schedulable(append(set.Clone(), late)) {
		t.Fatal("test set should be RM-schedulable")
	}
	const joinAt, horizon = 10, 3*long + 7
	s := NewSimulator(set)
	stepChecked(t, s, joinAt)
	joined := s.eng.Now()
	if _, err := s.Submit(admission.Join(late)); err != nil {
		t.Fatal(err)
	}
	stepChecked(t, s, horizon)
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Misses) != 0 {
		t.Fatalf("RM-schedulable set missed: %+v", st.Misses[0])
	}
	want := (horizon - joined + late.Period - 1) / late.Period
	for _, tk := range set {
		want += (horizon + tk.Period - 1) / tk.Period
	}
	if st.Jobs != want {
		t.Fatalf("released %d jobs, want %d", st.Jobs, want)
	}
}
