package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/obs"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// delayModel is a ReleaseModel with explicit cumulative offsets.
type delayModel struct {
	offsets map[int64]int64 // subtask -> θ(i); missing means carry previous
	early   map[int64]int64
	maxI    int64
}

func newDelayModel() *delayModel {
	return &delayModel{offsets: map[int64]int64{}, early: map[int64]int64{}}
}

// delayFrom adds extra delay to all subtasks at or after i.
func (d *delayModel) delayFrom(i, extra int64) {
	if i > d.maxI {
		d.maxI = i
	}
	d.offsets[i] += extra
}

func (d *delayModel) Offset(i int64) int64 {
	total := int64(0)
	for j := int64(1); j <= i && j <= d.maxI; j++ {
		total += d.offsets[j]
	}
	return total
}

func (d *delayModel) Earliness(i int64) int64 { return d.early[i] }

// TestFig1bISWindows pins Figure 1(b): the same weight-8/11 task with
// subtask T₅ released one slot late shifts all windows from T₅ on by one.
func TestFig1bISWindows(t *testing.T) {
	s := NewScheduler(1, PD2, Options{})
	dm := newDelayModel()
	dm.delayFrom(5, 1)
	if _, err := s.Submit(admission.JoinModel(task.MustNew("T", 8, 11), dm)); err != nil {
		t.Fatal(err)
	}
	pt := NewPattern(8, 11)
	for i := int64(1); i <= 8; i++ {
		shift := int64(0)
		if i >= 5 {
			shift = 1
		}
		wantR := pt.Release(i) + shift
		wantD := pt.Deadline(i) + shift
		off := s.tasks["T"].offsetOf(i)
		if gotR := off + pt.Release(i); gotR != wantR {
			t.Errorf("IS r(T%d) = %d, want %d", i, gotR, wantR)
		}
		if gotD := off + pt.Deadline(i); gotD != wantD {
			t.Errorf("IS d(T%d) = %d, want %d", i, gotD, wantD)
		}
	}
}

// TestISRandomDelaysNoMisses: PD² optimally schedules intra-sporadic task
// systems — random IS delays must not induce misses as long as Equation (2)
// holds.
func TestISRandomDelaysNoMisses(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		m := 1 + r.Intn(3)
		set := randomFeasibleSet(r, m, 5, 10)
		if len(set) == 0 {
			continue
		}
		s := NewScheduler(m, PD2, Options{})
		for _, tk := range set {
			dm := newDelayModel()
			// Sprinkle random delays over the first ~200 subtasks.
			for j := 0; j < 10; j++ {
				dm.delayFrom(int64(1+r.Intn(200)), int64(r.Intn(4)))
			}
			if _, err := s.Submit(admission.JoinModel(tk, dm)); err != nil {
				t.Fatal(err)
			}
		}
		h := int64(3000)
		s.RunUntil(h)
		s.FinishMisses(h)
		if n := len(s.Stats().Misses); n != 0 {
			t.Fatalf("trial %d: IS-PD² missed %d deadlines (first %+v) on %v",
				trial, n, s.Stats().Misses[0], set)
		}
	}
}

// TestISEarlinessKeepsDeadline: an early (bursty) arrival may execute
// before its Pfair release but its deadline is unchanged (Section 2: the
// deadline is "postponed to where it would have been had the packet arrived
// on time").
func TestISEarlinessKeepsDeadline(t *testing.T) {
	dm := newDelayModel()
	dm.early[3] = 2 // subtask 3 arrives two slots early
	s := NewScheduler(1, PD2, Options{})
	if _, err := s.Submit(admission.JoinModel(task.MustNew("T", 1, 4), dm)); err != nil {
		t.Fatal(err)
	}
	var slots []int64
	s.OnSlot(func(tt int64, assigned []Assignment) {
		for _, a := range assigned {
			if s.Name(a.Task) == "T" {
				slots = append(slots, tt)
			}
		}
	})
	s.RunUntil(12)
	// Window of T3 is [8, 12); with earliness 2 it may run from slot 6.
	// As the only task, PD² runs each subtask as soon as eligible:
	// T1 at 0, T2 at 4, T3 at 6 (early), T4 at 12 (not reached).
	want := []int64{0, 4, 6}
	if len(slots) != len(want) {
		t.Fatalf("allocations at %v, want %v", slots, want)
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("allocations at %v, want %v", slots, want)
		}
	}
	if len(s.Stats().Misses) != 0 {
		t.Fatal("unexpected misses")
	}
}

// TestLeaveRuleLight: a light task leaves at d(Tᵢ) + b(Tᵢ) of its
// last-scheduled subtask.
func TestLeaveRuleLight(t *testing.T) {
	join := func() *Scheduler {
		s := NewScheduler(1, PD2, Options{})
		if err := s.Join(task.MustNew("T", 2, 5)); err != nil { // light, b(T1)=1
			t.Fatal(err)
		}
		return s
	}
	// Before any allocation, leaving is immediate.
	dec, err := join().Submit(admission.Leave("T"))
	at := dec.EffectiveAt
	if err != nil || at != 0 {
		t.Fatalf("Leave before scheduling = %d, %v; want 0", at, err)
	}
	s := join()
	s.Step() // schedules T1 at slot 0
	pt := NewPattern(2, 5)
	want := pt.Deadline(1) + int64(pt.BBit(1))
	dec, err = s.Submit(admission.Leave("T"))
	at = dec.EffectiveAt
	if err != nil {
		t.Fatal(err)
	}
	if at != want {
		t.Fatalf("light leave time = %d, want d+b = %d", at, want)
	}
}

// TestLeaveRuleHeavy: a heavy task leaves strictly after its next group
// deadline.
func TestLeaveRuleHeavy(t *testing.T) {
	s := NewScheduler(1, PD2, Options{})
	if err := s.Join(task.MustNew("T", 8, 11)); err != nil {
		t.Fatal(err)
	}
	s.Step() // schedules T1 at slot 0
	pt := NewPattern(8, 11)
	want := pt.GroupDeadline(1) + 1
	dec, err := s.Submit(admission.Leave("T"))
	at := dec.EffectiveAt
	if err != nil {
		t.Fatal(err)
	}
	if at != want {
		t.Fatalf("heavy leave time = %d, want D+1 = %d", at, want)
	}
}

// TestLeaveFreesCapacity: after the departure takes effect a replacement
// task fits again, and the whole dance causes no misses.
func TestLeaveFreesCapacity(t *testing.T) {
	s := NewScheduler(1, PD2, Options{})
	if err := s.Join(task.MustNew("A", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(task.MustNew("B", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(task.MustNew("C", 1, 4)); err == nil {
		t.Fatal("overload join accepted")
	}
	dec, err := s.Submit(admission.Leave("B"))
	at := dec.EffectiveAt
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(at) // the departure lands at slot `at`, before this join
	if err := s.Join(task.MustNew("C", 1, 2)); err != nil {
		t.Fatalf("join after leave rejected: %v", err)
	}
	s.RunUntil(at + 40)
	s.FinishMisses(at + 40)
	if n := len(s.Stats().Misses); n != 0 {
		t.Fatalf("leave/join sequence caused %d misses", n)
	}
	names := s.Tasks()
	if len(names) != 2 || names[0] != "A" || names[1] != "C" {
		t.Fatalf("tasks after leave = %v", names)
	}
}

// TestReweight models Section 5.2's virtual-reality rendering task whose
// weight changes: reweighting is a leave-and-join and must not cause
// misses.
func TestReweight(t *testing.T) {
	s := NewScheduler(2, PD2, Options{})
	for _, tk := range []*task.Task{task.MustNew("render", 2, 3), task.MustNew("bg", 2, 3), task.MustNew("aux", 1, 2)} {
		if err := s.Join(tk); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(5)
	dec, err := s.Submit(admission.Reweight("render", 1, 3)) // scene got simpler
	at := dec.EffectiveAt
	if err != nil {
		t.Fatal(err)
	}
	if at < 5 {
		t.Fatalf("reweight effective at %d, before now", at)
	}
	s.RunUntil(at + 60)
	s.FinishMisses(at + 60)
	if n := len(s.Stats().Misses); n != 0 {
		t.Fatalf("reweighting caused %d misses: %+v", n, s.Stats().Misses[0])
	}
	// The replacement keeps the name and the new weight, under a new id
	// after the three joins; the departed incarnation keeps its id and
	// name.
	st := s.tasks["render"]
	if st == nil || st.task.Cost != 1 || st.task.Period != 3 {
		t.Fatalf("render not reweighted: %+v", st)
	}
	if st.id != 3 || s.Name(3) != "render" || s.Name(0) != "render" || s.Name(1) != "bg" {
		t.Fatalf("render's new incarnation has id %d; Name(0..3) = %q %q %q %q",
			st.id, s.Name(0), s.Name(1), s.Name(2), s.Name(3))
	}
	// Upward reweight beyond capacity must fail fast: 2/3 + 1/2 already
	// committed, so raising render to weight 1 needs 13/6 > 2.
	if _, err := s.Submit(admission.Reweight("render", 3, 3)); err == nil {
		t.Fatal("infeasible reweight accepted")
	}
	// A feasible upward reweight reserves capacity immediately: raising
	// render to 5/6 brings the total to 2, so nothing else may join even
	// before the swap takes effect.
	if _, err := s.Submit(admission.Reweight("render", 5, 6)); err != nil {
		t.Fatalf("feasible upward reweight rejected: %v", err)
	}
	if err := s.Join(task.MustNew("late", 1, 100)); err == nil {
		t.Fatal("join during reserved reweight accepted")
	}
}

// TestLeaveCancelsPendingReweight: a Leave submitted while the task's
// Reweight is still pending is a leave, not an idempotent repeat. The
// task departs at the reweight's safe slot, no new incarnation joins,
// and an upward reweight's reserved weight is handed back at once. Both
// requests are made at slot 6, where both reweights wait for a later
// safe slot (at slot 5, C's would take effect at once, and the Leave
// would find its new incarnation).
func TestLeaveCancelsPendingReweight(t *testing.T) {
	for _, c := range []struct {
		name         string
		cost, period int64
		afterLeave   string // Σwt right after the Leave
		wantTasks    []string
		wantWeight   string // Σwt at the end
	}{
		{"C", 1, 2, "17/12", []string{"A", "B"}, "7/6"}, // upward: 1/4 → 1/2
		{"B", 1, 3, "17/12", []string{"A", "C"}, "3/4"}, // downward: 2/3 → 1/3
	} {
		rec := obs.NewRecorder(1 << 12)
		met := obs.NewSchedulerMetrics(nil)
		s := NewScheduler(2, PD2, Options{})
		s.Observe(rec, met)
		var ran []int64 // the slots of every allocation to the target
		s.OnSlot(func(slot int64, assigned []Assignment) {
			for _, a := range assigned {
				if s.Name(a.Task) == c.name {
					ran = append(ran, slot)
				}
			}
		})
		for _, tk := range []*task.Task{task.MustNew("A", 1, 2), task.MustNew("B", 2, 3), task.MustNew("C", 1, 4)} {
			if _, err := s.Submit(admission.Join(tk)); err != nil {
				t.Fatal(err)
			}
		}
		s.RunUntil(6)
		rw, err := s.Submit(admission.Reweight(c.name, c.cost, c.period))
		if err != nil {
			t.Fatalf("%s: reweight: %v", c.name, err)
		}
		lv, err := s.Submit(admission.Leave(c.name))
		if err != nil {
			t.Fatalf("%s: leave: %v", c.name, err)
		}
		leaveAt := rw.EffectiveAt
		if lv.EffectiveAt != leaveAt || leaveAt <= 6 {
			t.Errorf("%s: reweight @%d, leave @%d; want the same safe slot, after 6", c.name, leaveAt, lv.EffectiveAt)
		}
		if got := s.TotalWeight().String(); got != c.afterLeave {
			t.Errorf("%s: Σwt after the leave = %s, want %s", c.name, got, c.afterLeave)
		}
		s.RunUntil(40)
		s.FinishMisses(40)
		if got := s.Tasks(); !reflect.DeepEqual(got, c.wantTasks) {
			t.Errorf("%s: tasks at 40 = %v, want %v", c.name, got, c.wantTasks)
		}
		if got := s.TotalWeight().String(); got != c.wantWeight {
			t.Errorf("%s: Σwt at 40 = %s, want %s", c.name, got, c.wantWeight)
		}
		if len(ran) > 0 && ran[len(ran)-1] >= leaveAt {
			t.Errorf("%s: allocated at slot %d, after its departure at %d", c.name, ran[len(ran)-1], leaveAt)
		}
		if n := len(s.Stats().Misses); n != 0 {
			t.Errorf("%s: %d misses", c.name, n)
		}
		var joins, leaves, reweights int
		for _, e := range rec.Events() {
			switch e.Kind {
			case obs.EvJoin:
				joins++
			case obs.EvLeave:
				leaves++
			case obs.EvReweight:
				reweights++
			}
		}
		if joins != 3 || leaves != 1 || reweights != 0 {
			t.Errorf("%s: %d EvJoin, %d EvLeave, %d EvReweight; want 3, 1, 0", c.name, joins, leaves, reweights)
		}
		if got := []int64{met.Joins.Value(), met.Reweights.Value(), met.Leaves.Value()}; !reflect.DeepEqual(got, []int64{3, 1, 1}) {
			t.Errorf("%s: joins/reweights/leaves counted %v, want [3 1 1]", c.name, got)
		}
	}
}

// TestSubmitAtEffectiveAt: a reweight whose EffectiveAt is the current
// slot has landed for every later request at that slot, and for Tasks and
// TotalWeight, before the slot's Release runs: a Leave then finds the new
// incarnation and is an ordinary leave, not a cancellation.
func TestSubmitAtEffectiveAt(t *testing.T) {
	s := NewScheduler(2, PD2, Options{})
	for _, tk := range []*task.Task{task.MustNew("A", 1, 2), task.MustNew("B", 2, 3), task.MustNew("C", 1, 4)} {
		if err := s.Join(tk); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(5)
	rw, err := s.Submit(admission.Reweight("C", 1, 2))
	if err != nil || rw.EffectiveAt != 5 {
		t.Fatalf("reweight: %+v, %v; want it effective at once, at 5", rw, err)
	}
	if got := s.TotalWeight().String(); got != "5/3" {
		t.Errorf("Σwt after the reweight = %s, want 5/3 (C at 1/2)", got)
	}
	lv, err := s.Submit(admission.Leave("C"))
	if err != nil || lv.EffectiveAt != 5 {
		t.Fatalf("leave: %+v, %v; want the new incarnation gone at once, at 5", lv, err)
	}
	if tasks, w := s.Tasks(), s.TotalWeight().String(); !reflect.DeepEqual(tasks, []string{"A", "B"}) || w != "7/6" {
		t.Errorf("after the leave: %v at Σwt %s, want [A B] at 7/6", tasks, w)
	}
	if n := len(s.order); n != 4 || s.Name(3) != "C" || !s.order[3].departed {
		t.Errorf("%d incarnations; want C's new one, departed, as the fourth", n)
	}
}

// churnStep is one request of a churn script, submitted at slot at.
type churnStep struct {
	at  int64
	req admission.Request
}

// runChurn joins set at slot 0 on m PD² processors, submits the steps in
// order, and runs to horizon. It returns the scheduler and, for every
// request (set's joins first), Submit's Decision and error.
func runChurn(m int, set task.Set, steps []churnStep, horizon int64, onSlot func(int64, []Assignment)) (*Scheduler, []admission.Decision, []error) {
	s := NewScheduler(m, PD2, Options{})
	if onSlot != nil {
		s.OnSlot(onSlot)
	}
	var script []churnStep
	for _, tk := range set {
		script = append(script, churnStep{0, admission.Join(tk)})
	}
	var ds []admission.Decision
	var errs []error
	for _, st := range append(script, steps...) {
		s.RunUntil(st.at)
		d, err := s.Submit(st.req)
		ds, errs = append(ds, d), append(errs, err)
	}
	s.RunUntil(horizon)
	s.FinishMisses(horizon)
	return s, ds, errs
}

// TestChurnScripts: each script's requests are all accepted, the run
// keeps every deadline, and it ends with the task set and total weight
// its operations imply. The last two scripts leave a task whose
// reweight is still pending: the leave cancels the reweight, upward or
// downward, and the task departs at the reweight's safe slot.
func TestChurnScripts(t *testing.T) {
	set := task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 2, 3), task.MustNew("C", 1, 4)}
	for _, sc := range []struct {
		name       string
		steps      []churnStep
		wantTasks  []string
		wantWeight string
	}{
		{"join, reweight, leave", []churnStep{
			{30, admission.Join(task.MustNew("D", 1, 5))},
			{30, admission.Reweight("C", 1, 2)},
			{60, admission.Leave("B")},
		}, []string{"A", "D", "C"}, "6/5"},
		{"leave after pending upward reweight", []churnStep{
			{5, admission.Reweight("C", 1, 2)},
			{5, admission.Leave("C")},
		}, []string{"A", "B"}, "7/6"},
		{"leave after pending downward reweight", []churnStep{
			{5, admission.Reweight("B", 1, 3)},
			{5, admission.Leave("B")},
		}, []string{"A", "C"}, "3/4"},
	} {
		s, _, errs := runChurn(2, set, sc.steps, 120, nil)
		for i, err := range errs {
			if err != nil {
				t.Errorf("%s: request %d refused: %v", sc.name, i, err)
			}
		}
		if n := len(s.Stats().Misses); n != 0 {
			t.Errorf("%s: %d misses under a feasible script", sc.name, n)
		}
		if tasks, w := s.Tasks(), s.TotalWeight().String(); !reflect.DeepEqual(tasks, sc.wantTasks) || w != sc.wantWeight {
			t.Errorf("%s: ends with %v at Σwt %s, want %v at %s", sc.name, tasks, w, sc.wantTasks, sc.wantWeight)
		}
	}
}

// TestJoinMidRunNoMisses: tasks joining a running system at staggered times
// never cause misses while Equation (2) holds (Section 2's headline benefit
// for dynamic systems).
func TestJoinMidRunNoMisses(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		m := 2 + r.Intn(2)
		s := NewScheduler(m, PD2, Options{})
		weight := rational.NewAcc()
		joined := 0
		for tt := int64(0); tt < 2000; tt++ {
			if r.Intn(20) == 0 && joined < 12 {
				p := int64(2 + r.Intn(12))
				e := int64(1 + r.Intn(int(p)))
				w := rational.New(e, p)
				if weight.Clone().Add(w).CmpInt(int64(m)) <= 0 {
					weight.Add(w)
					name := fmt.Sprintf("J%d", joined)
					if err := s.Join(task.MustNew(name, e, p)); err != nil {
						t.Fatalf("join: %v", err)
					}
					joined++
				}
			}
			s.Step()
		}
		s.FinishMisses(2000)
		if n := len(s.Stats().Misses); n != 0 {
			t.Fatalf("trial %d: %d misses with dynamic joins", trial, n)
		}
	}
}

// TestChurnNoMisses: random joins AND leaves under the Section 2 rules keep
// the system miss-free.
func TestChurnNoMisses(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		m := 2
		s := NewScheduler(m, PD2, Options{})
		nextName := 0
		for tt := int64(0); tt < 3000; tt++ {
			switch r.Intn(25) {
			case 0:
				p := int64(2 + r.Intn(10))
				e := int64(1 + r.Intn(int(p)))
				name := fmt.Sprintf("C%d", nextName)
				if s.TotalWeight().Add(rational.New(e, p)).CmpInt(int64(m)) <= 0 {
					if err := s.Join(task.MustNew(name, e, p)); err != nil {
						t.Fatalf("join: %v", err)
					}
					nextName++
				}
			case 1:
				names := s.Tasks()
				if len(names) > 0 {
					if _, err := s.Submit(admission.Leave(names[r.Intn(len(names))])); err != nil {
						t.Fatalf("leave: %v", err)
					}
				}
			}
			s.Step()
		}
		s.FinishMisses(3000)
		if n := len(s.Stats().Misses); n != 0 {
			t.Fatalf("trial %d: %d misses under churn, first %+v", trial, n, s.Stats().Misses[0])
		}
	}
}

// TestFailProcessorsTransparent: Section 5.4 — losing K of M processors is
// transparent when total weight ≤ M − K.
func TestFailProcessorsTransparent(t *testing.T) {
	set := task.Set{
		task.MustNew("A", 2, 3), task.MustNew("B", 2, 3), task.MustNew("C", 2, 3),
	} // Σwt = 2
	s := NewScheduler(3, PD2, Options{})
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(30)
	if got := s.FailProcessors(1); got != 2 {
		t.Fatalf("FailProcessors returned %d processors", got)
	}
	s.RunUntil(300)
	s.FinishMisses(300)
	if n := len(s.Stats().Misses); n != 0 {
		t.Fatalf("processor loss caused %d misses despite Σwt ≤ M−K", n)
	}
}

// TestFailProcessorsOverload: when the survivors cannot carry the load the
// system degrades by recording misses rather than wedging, and reweighting
// non-critical tasks restores schedulability (Section 5.4's graceful
// degradation).
func TestFailProcessorsOverload(t *testing.T) {
	s := NewScheduler(2, PD2, Options{})
	crit := task.MustNew("critical", 2, 3)
	crit.Critical = true
	bulk := task.MustNew("bulk", 2, 3)
	extra := task.MustNew("extra", 2, 3)
	for _, tk := range []*task.Task{crit, bulk, extra} {
		if err := s.Join(tk); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(30)
	s.FailProcessors(1) // Σwt = 2 > 1: overload
	// Immediately reweight the non-critical tasks down so the survivors
	// fit: 2/3 + 1/6 + 1/6 = 1.
	if _, err := s.Submit(admission.Reweight("bulk", 1, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(admission.Reweight("extra", 1, 6)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(600)
	s.FinishMisses(600)
	for _, m := range s.Stats().Misses {
		if s.Name(m.Task) == "critical" && m.Deadline > 60 {
			t.Fatalf("critical task still missing after reweighting settled: %+v", m)
		}
	}
}

// TestLeaveUnknownTask: error paths.
func TestLeaveUnknownTask(t *testing.T) {
	s := NewScheduler(1, PD2, Options{})
	if _, err := s.Submit(admission.Leave("ghost")); err == nil {
		t.Error("Leave of unknown task succeeded")
	}
	if _, err := s.Submit(admission.Reweight("ghost", 1, 2)); err == nil {
		t.Error("Reweight of unknown task succeeded")
	}
	if _, err := s.Lag("ghost"); err == nil {
		t.Error("Lag of unknown task succeeded")
	}
}
