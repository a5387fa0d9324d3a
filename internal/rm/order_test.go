package rm

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/calq"
	"pfair/internal/edf"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// These tests hold edf.NewRMSimulator to RM priority from outside the
// simulator: a unit-step reference runs, in every time unit, the
// minimum pending job under (period, Name, index), and the simulator's
// trace must put the same job on the processor in every unit.

// slotJob names the job that held the processor for one time unit; the
// zero value is an idle unit.
type slotJob struct {
	task  string
	index int64
}

// timedOp is a Submit request applied at an engine instant.
type timedOp struct {
	at  int64
	req admission.Request
}

// refJob is a pending job of the reference.
type refJob struct {
	task                               string
	period, index, remaining, deadline int64
}

// refLess is RM priority spelled with the task name: (period, Name,
// index).
func refLess(a, b *refJob) bool {
	if a.period != b.period {
		return a.period < b.period
	}
	if a.task != b.task {
		return a.task < b.task
	}
	return a.index < b.index
}

// reference runs set plus ops in unit steps over [0, horizon) under RM
// and returns the job run in each unit, the jobs released and the misses.
// An op at instant t applies before t's releases: a join releases at t,
// a leave cancels the task's pending jobs and its release at t, and a
// reweight is a leave plus a join under the new parameters.
func reference(set task.Set, ops []timedOp, horizon int64) (occ []slotJob, jobs int64, misses []edf.Miss) {
	type refTask struct{ cost, period, next, nextJob int64 }
	tasks := map[string]*refTask{}
	var pending []*refJob
	join := func(name string, cost, period, at int64) {
		tasks[name] = &refTask{cost: cost, period: period, next: at, nextJob: 1}
	}
	leave := func(name string) {
		delete(tasks, name)
		pending = slices.DeleteFunc(pending, func(j *refJob) bool { return j.task == name })
	}
	for _, tk := range set {
		join(tk.Name, tk.Cost, tk.Period, 0)
	}
	occ = make([]slotJob, horizon)
	for now := int64(0); now < horizon; now++ {
		for _, op := range ops {
			if op.at != now {
				continue
			}
			switch r := op.req; r.Op {
			case admission.OpJoin:
				join(r.Task.Name, r.Task.Cost, r.Task.Period, now)
			case admission.OpLeave:
				leave(r.Name)
			case admission.OpReweight:
				leave(r.Name)
				join(r.Name, r.NewCost, r.NewPeriod, now)
			}
		}
		for name, rt := range tasks { //pfair:orderinvariant the pick below is a total order
			if rt.next == now {
				pending = append(pending, &refJob{task: name, period: rt.period,
					index: rt.nextJob, remaining: rt.cost, deadline: now + rt.period})
				rt.next += rt.period
				rt.nextJob++
				jobs++
			}
		}
		if len(pending) == 0 {
			continue
		}
		top := 0
		for i, j := range pending {
			if refLess(j, pending[top]) {
				top = i
			}
		}
		j := pending[top]
		occ[now] = slotJob{j.task, j.index}
		if j.remaining--; j.remaining == 0 {
			if now+1 > j.deadline {
				misses = append(misses, edf.Miss{Task: j.task, Job: j.index, Deadline: j.deadline, FinishedAt: now + 1})
			}
			pending = slices.Delete(pending, top, top+1)
		}
	}
	for _, j := range pending {
		if j.deadline <= horizon {
			misses = append(misses, edf.Miss{Task: j.task, Job: j.index, Deadline: j.deadline, FinishedAt: -1})
		}
	}
	return occ, jobs, misses
}

// occupancy replays rec's trace into the job that held the processor in
// each unit of [0, horizon). A job runs from its EvSchedule until it is
// preempted, its task leaves or is reweighted, or it has run its task's
// cost, which the task's EvJoin carries.
func occupancy(t *testing.T, rec *obs.Recorder, horizon int64) []slotJob {
	t.Helper()
	if rec.Dropped() != 0 {
		t.Fatalf("ring too small: dropped %d", rec.Dropped())
	}
	type key struct {
		id    int32
		index int64
	}
	occ := make([]slotJob, horizon)
	cost := map[int32]int64{}
	remaining := map[key]int64{}
	var cur key
	running := false
	last := int64(0)
	advance := func(to int64) {
		if to < last {
			t.Fatalf("trace moved back from %d to %d", last, to)
		}
		if running {
			n := min(remaining[cur], to-last)
			for u := last; u < last+n; u++ {
				occ[u] = slotJob{rec.TaskName(cur.id), cur.index}
			}
			if remaining[cur] -= n; remaining[cur] == 0 {
				running = false
			}
		}
		last = to
	}
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.EvJoin:
			cost[e.Task] = e.A
		case obs.EvRelease:
			remaining[key{e.Task, e.A}] = cost[e.Task]
		case obs.EvPreempt:
			advance(e.Slot)
			if !running || cur != (key{e.Task, e.A}) {
				t.Fatalf("t=%d: preempted %s#%d, which is not running", e.Slot, rec.TaskName(e.Task), e.A)
			}
			running = false
		case obs.EvSchedule:
			advance(e.Slot)
			if running {
				t.Fatalf("t=%d: scheduled %s#%d over the running %s#%d",
					e.Slot, rec.TaskName(e.Task), e.A, rec.TaskName(cur.id), cur.index)
			}
			cur, running = key{e.Task, e.A}, true
			if remaining[cur] <= 0 {
				t.Fatalf("t=%d: scheduled %s#%d, which has no work left", e.Slot, rec.TaskName(e.Task), e.A)
			}
		case obs.EvLeave:
			advance(e.Slot)
			running = running && cur.id != e.Task
		case obs.EvReweight:
			// The old incarnation's jobs are cancelled; the event names
			// the new one.
			advance(e.Slot)
			running = running && rec.TaskName(cur.id) != rec.TaskName(e.Task)
		}
	}
	advance(horizon)
	return occ
}

// sortedMisses orders misses so two runs compare as multisets.
func sortedMisses(m []edf.Miss) []edf.Miss {
	m = slices.Clone(m)
	slices.SortFunc(m, func(a, b edf.Miss) int {
		return cmp.Or(cmp.Compare(a.Task, b.Task), cmp.Compare(a.Job, b.Job),
			cmp.Compare(a.Deadline, b.Deadline), cmp.Compare(a.FinishedAt, b.FinishedAt))
	})
	return m
}

// checkAgainstReference runs set on the RM simulator, stepping the engine
// to each op's instant before submitting it (an op's instant is where
// the engine then stands), and requires the reference's unit-by-unit
// schedule, job count and misses.
func checkAgainstReference(t *testing.T, set task.Set, ops []timedOp, horizon int64) edf.Stats {
	t.Helper()
	s := edf.NewRMSimulator()
	rec := obs.NewRecorder(1 << 16)
	s.SetRecorder(rec)
	for _, tk := range set {
		if err := s.Add(edf.Config{Task: tk}); err != nil {
			t.Fatal(err)
		}
	}
	applied := make([]timedOp, len(ops))
	for i, op := range ops {
		for s.Engine().Now() < op.at {
			s.Engine().Step()
		}
		applied[i] = timedOp{s.Engine().Now(), op.req}
		if _, err := s.Submit(op.req); err != nil {
			t.Fatalf("t=%d %+v: %v", applied[i].at, op.req, err)
		}
	}
	if err := s.Run(horizon); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	want, jobs, misses := reference(set, applied, horizon)
	got := occupancy(t, rec, horizon)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("t=%d: ran %s#%d, but %s#%d is the RM-priority minimum",
				u, got[u].task, got[u].index, want[u].task, want[u].index)
		}
	}
	if st.Jobs != jobs {
		t.Fatalf("released %d jobs, reference released %d", st.Jobs, jobs)
	}
	if g, w := sortedMisses(st.Misses), sortedMisses(misses); !slices.Equal(g, w) {
		t.Fatalf("misses %+v, reference %+v", g, w)
	}
	return st
}

// TestDispatchIsPriorityMin: in every time unit the RM simulator runs the
// minimum pending job under (period, Name, index). Task names T0…T13 sort
// differently as strings and as numbers (T10 < T2), periods come from a
// short menu so priorities tie often, and the sets are left unchecked, so
// many overload and queue several jobs of one task. The churn subtest
// drives joins, a leave and a reweight through Submit, which renumber the
// ranks of tasks with jobs still queued.
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
			checkAgainstReference(t, set, nil, 400)
		})
	}

	t.Run("churn", func(t *testing.T) {
		set := task.Set{
			task.MustNew("T1", 1, 8), task.MustNew("T2", 1, 12), task.MustNew("T9", 1, 16),
		}
		script := []timedOp{
			{40, admission.Join(task.MustNew("T10", 1, 8))},
			{40, admission.Join(task.MustNew("T11", 1, 12))},
			{91, admission.Leave("T2")},
			{130, admission.Reweight("T10", 2, 12)},
			{170, admission.Join(task.MustNew("T3", 1, 8))},
		}
		if st := checkAgainstReference(t, set, script, 300); len(st.Misses) != 0 {
			t.Fatalf("admitted set missed: %+v", st.Misses)
		}
	})
}

// TestLongPeriodBeyondSpanCap: a period past calq.DefaultSpanCap next to
// short ones keeps every timer in the one release wheel, whose span is
// capped, so the long timer shares buckets with other rounds. The
// RM-schedulable set must miss nothing, release exactly the jobs due
// before the horizon, and run the RM-priority minimum in every unit; a
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
	if !schedulable(append(set.Clone(), late)) {
		t.Fatal("test set should be RM-schedulable")
	}
	const joinAt, horizon = 10, 3*long + 7
	st := checkAgainstReference(t, set, []timedOp{{joinAt, admission.Join(late)}}, horizon)
	if len(st.Misses) != 0 {
		t.Fatalf("RM-schedulable set missed: %+v", st.Misses[0])
	}
	// The join lands on the first engine instant at or after joinAt; the
	// short tasks release every 10 units, so that is joinAt itself.
	want := (horizon - joinAt + late.Period - 1) / late.Period
	for _, tk := range set {
		want += (horizon + tk.Period - 1) / tk.Period
	}
	if st.Jobs != want {
		t.Fatalf("released %d jobs, want %d", st.Jobs, want)
	}
}
