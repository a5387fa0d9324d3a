package edf

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/calq"
	"pfair/internal/obs"
	"pfair/internal/rm"
	"pfair/internal/task"
)

// rules are the simulator's priority rules, EDF then RM, as the rm flag
// of newSimulator. The white-box tests run under each.
var rules = []bool{false, true}

// nameLess is the rule's priority spelled with the task name, as the
// ready queue compared jobs before tie-breaks became integer ranks:
// (key, Name, index), where the key is the job's deadline (its own or its
// server's) under EDF and its task's period under RM. The tests hold the
// rank-ordered queue to it.
func nameLess(isRM bool, a, b *job) bool {
	ka, kb := a.key, b.key
	if isRM {
		ka, kb = a.ts.cfg.Task.Period, b.ts.cfg.Task.Period
	}
	if ka != kb {
		return ka < kb
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
	if !sort.SliceIsSorted(ready, func(i, k int) bool { return nameLess(s.rm, ready[i], ready[k]) }) {
		t.Fatalf("t=%d: ready queue does not pop in (key, Name, index) order", s.now)
	}
	if len(ready) == 0 {
		return
	}
	if s.running == nil {
		t.Fatalf("t=%d: processor idle with %d ready jobs", s.now, len(ready))
	}
	if top := ready[0]; !nameLess(s.rm, s.running, top) {
		t.Fatalf("t=%d: running %s#%d (key %d) but %s#%d (key %d) is ready",
			s.now, s.running.ts.cfg.Task.Name, s.running.index, s.running.key,
			top.ts.cfg.Task.Name, top.index, top.key)
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
// numbers (T10 < T2), periods come from a short menu so keys tie often,
// and the sets are left unchecked, so many overload and queue deep. Under
// EDF, odd seeds serve one overrunning task through a CBS. The churn
// subtest drives joins, a leave and a reweight through Submit, which
// renumber the ranks of tasks with jobs still queued; the script passes
// both rules' admission tests. RM subtests are prefixed "rm/".
func TestDispatchIsPriorityMin(t *testing.T) {
	for _, isRM := range rules {
		prefix := ""
		if isRM {
			prefix = "rm/"
		}
		testDispatchIsPriorityMin(t, isRM, prefix)
	}
}

func testDispatchIsPriorityMin(t *testing.T, isRM bool, prefix string) {
	periods := []int64{4, 6, 8, 12, 16, 24}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("%sseed%d", prefix, seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			s := newSimulator(isRM, nil)
			n := 8 + r.Intn(7)
			for _, i := range r.Perm(n) {
				p := periods[r.Intn(len(periods))]
				cfg := Config{Task: task.MustNew(fmt.Sprintf("T%d", i), 1+r.Int63n(p/2), p)}
				if seed%2 == 1 && i == 3 && !isRM {
					cfg.ActualCost = func(job int64) int64 { return 1 + job%3*p/2 }
					cfg.Server = &CBS{Budget: 1, Period: p}
				}
				mustAdd(t, s, cfg)
			}
			stepChecked(t, s, 400)
		})
	}

	t.Run(prefix+"churn", func(t *testing.T) {
		s := newSimulator(isRM, nil)
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
			{170, admission.Join(task.MustNew("T3", 1, 8))},
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
// capped, so the long timer shares buckets with other rounds. Under each
// rule the RM-schedulable (so also EDF-feasible) set must miss nothing,
// release exactly the jobs due before the horizon, emit each instant's
// releases in name order, and keep the dispatch invariant at every step;
// a mid-run join of a second long-period task takes the same path.
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
	all := append(set.Clone(), late) // add order, so obs ids index it
	if _, ok := rm.ResponseTimes(all); !ok {
		t.Fatal("test set should be RM-schedulable")
	}
	const joinAt, horizon = 10, 3*long + 7
	for _, isRM := range rules {
		s := newSimulator(isRM, nil)
		rec := obs.NewRecorder(1 << 16)
		s.SetRecorder(rec)
		for _, tk := range set {
			mustAdd(t, s, Config{Task: tk})
		}
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
			t.Fatalf("rm=%v: schedulable set missed: %+v", isRM, st.Misses[0])
		}
		if rec.Dropped() != 0 {
			t.Fatalf("ring too small: dropped %d", rec.Dropped())
		}
		want := (horizon - joined + late.Period - 1) / late.Period
		for _, tk := range set {
			want += (horizon + tk.Period - 1) / tk.Period
		}
		if st.Jobs != want {
			t.Fatalf("rm=%v: released %d jobs, want %d", isRM, st.Jobs, want)
		}
		perTask := map[string]int64{}
		prev, prevSlot := "", int64(-1)
		for _, e := range rec.Events() {
			if e.Kind != obs.EvRelease {
				continue
			}
			name := all[e.Task].Name
			perTask[name]++
			if e.Slot == prevSlot && name <= prev {
				t.Fatalf("rm=%v, t=%d: %s released after %s", isRM, e.Slot, name, prev)
			}
			prev, prevSlot = name, e.Slot
		}
		if got := perTask["T100"]; got != 3+1 {
			t.Fatalf("rm=%v: long-period task released %d jobs, want 4", isRM, got)
		}
	}
}
