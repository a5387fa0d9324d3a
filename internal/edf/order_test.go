package edf

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/calq"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// nameLess is EDF priority spelled with the task name, as the ready queue
// compared jobs before tie-breaks became integer ranks: (deadline, Name,
// index). The tests hold the rank-ordered queue to it.
func nameLess(a, b *job) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.ts.cfg.Task.Name != b.ts.cfg.Task.Name {
		return a.ts.cfg.Task.Name < b.ts.cfg.Task.Name
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
		t.Fatalf("t=%d: ready queue does not pop in (deadline, Name, index) order", s.now)
	}
	if len(ready) == 0 {
		return
	}
	if s.running == nil {
		t.Fatalf("t=%d: processor idle with %d ready jobs", s.now, len(ready))
	}
	if top := ready[0]; !nameLess(s.running, top) {
		t.Fatalf("t=%d: running %s#%d (d=%d) but %s#%d (d=%d) is ready",
			s.now, s.running.ts.cfg.Task.Name, s.running.index, s.running.deadline,
			top.ts.cfg.Task.Name, top.index, top.deadline)
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
// numbers (T10 < T2), periods come from a short menu so deadlines tie
// often, and the sets are left unchecked, so many overload and queue deep.
// Odd seeds serve one overrunning task through a CBS. The churn subtest
// drives joins, a leave and a reweight through Submit, which renumber the
// ranks of tasks with jobs still queued.
func TestDispatchIsPriorityMin(t *testing.T) {
	periods := []int64{4, 6, 8, 12, 16, 24}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			s := NewSimulator()
			n := 8 + r.Intn(7)
			for _, i := range r.Perm(n) {
				p := periods[r.Intn(len(periods))]
				cfg := Config{Task: task.MustNew(fmt.Sprintf("T%d", i), 1+r.Int63n(p/2), p)}
				if seed%2 == 1 && i == 3 {
					cfg.ActualCost = func(job int64) int64 { return 1 + job%3*p/2 }
					cfg.Server = &CBS{Budget: 1, Period: p}
				}
				mustAdd(t, s, cfg)
			}
			stepChecked(t, s, 400)
		})
	}

	t.Run("churn", func(t *testing.T) {
		s := NewSimulator()
		for _, tk := range []*task.Task{
			task.MustNew("T1", 1, 8), task.MustNew("T2", 2, 12), task.MustNew("T9", 1, 12),
		} {
			if _, err := s.Submit(admission.Join(tk)); err != nil {
				t.Fatal(err)
			}
		}
		script := []struct {
			at  int64
			req admission.Request
		}{
			{40, admission.Join(task.MustNew("T10", 2, 8))},
			{40, admission.Join(task.MustNew("T11", 1, 12))},
			{91, admission.Leave("T2")},
			{130, admission.Reweight("T10", 3, 12)},
			{170, admission.Join(task.MustNew("T3", 2, 8))},
			{170, admission.Join(task.MustNew("T20", 1, 24))},
		}
		for _, op := range script {
			stepChecked(t, s, op.at)
			if _, err := s.Submit(op.req); err != nil {
				t.Fatalf("t=%d %+v: %v", op.at, op.req, err)
			}
			for i, ts := range s.byName {
				if ts.rank != i || (i > 0 && s.byName[i-1].cfg.Task.Name >= ts.cfg.Task.Name) {
					t.Fatalf("t=%d: rank %d holds %s with rank %d", op.at, i, ts.cfg.Task.Name, ts.rank)
				}
			}
		}
		stepChecked(t, s, 300)
		if err := s.Run(300); err != nil {
			t.Fatal(err)
		}
		if m := s.Stats().Misses; len(m) != 0 {
			t.Fatalf("admitted set missed: %+v", m)
		}
	})
}

// TestLongPeriodBeyondSpanCap: a period past calq.DefaultSpanCap next to
// short ones keeps every timer in the one release wheel, whose span is
// capped, so the long timer shares buckets with other rounds. The
// feasible set must miss nothing, release exactly the jobs due before the
// horizon, and emit each instant's releases in name order.
func TestLongPeriodBeyondSpanCap(t *testing.T) {
	const long = 20000
	if long <= calq.DefaultSpanCap {
		t.Fatalf("period %d no longer exceeds the span cap %d", long, calq.DefaultSpanCap)
	}
	set := task.Set{
		task.MustNew("T2", 2, 10), task.MustNew("T10", 5, 25), task.MustNew("T1", 10, 50),
		task.MustNew("T100", 2000, long), task.MustNew("T3", 3, 40),
	}
	if !Schedulable(set) {
		t.Fatal("test set should be EDF-feasible")
	}
	const horizon = 3*long + 7
	s := NewSimulator()
	rec := obs.NewRecorder(1 << 16)
	s.SetRecorder(rec)
	for _, tk := range set {
		mustAdd(t, s, Config{Task: tk})
	}
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Misses) != 0 {
		t.Fatalf("feasible set missed: %+v", st.Misses[0])
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring too small: dropped %d", rec.Dropped())
	}
	var want int64
	perTask := map[string]int64{}
	for _, tk := range set {
		want += (horizon + tk.Period - 1) / tk.Period
	}
	if st.Jobs != want {
		t.Fatalf("released %d jobs, want %d", st.Jobs, want)
	}
	prev, prevSlot := "", int64(-1)
	for _, e := range rec.Events() {
		if e.Kind != obs.EvRelease {
			continue
		}
		name := set[e.Task].Name
		perTask[name]++
		if e.Slot == prevSlot && name <= prev {
			t.Fatalf("t=%d: %s released after %s", e.Slot, name, prev)
		}
		prev, prevSlot = name, e.Slot
	}
	if got := perTask["T100"]; got != 3+1 {
		t.Fatalf("long-period task released %d jobs, want 4", got)
	}
}
