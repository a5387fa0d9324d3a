package supertask

import (
	"math/rand"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/rational"
	"pfair/internal/task"
	"pfair/internal/verify"
)

// join admits an ordinary task through Submit.
func join(sys *System, t *task.Task) error {
	_, err := sys.Submit(admission.Join(t))
	return err
}

// joinSupertask admits st through Submit, competing with its cumulative
// weight, or the inflated one when reweighted is true.
func joinSupertask(sys *System, st *Supertask, reweighted bool) error {
	req, err := JoinRequest(st, reweighted)
	if err != nil {
		return err
	}
	_, err = sys.Submit(req)
	return err
}

// fig5System builds the Figure 5 scenario: on two processors, normal tasks
// V (1/2), W (1/3), X (1/3), Y (2/9) and a supertask S bundling components
// T (1/5) and U (1/45), competing with weight 1/5 + 1/45 = 2/9.
//
// Y and S have identical Pfair parameters, so their priority tie is broken
// by admission order; the schedule depicted in the paper corresponds to S
// winning the tie, so S is admitted before Y.
func fig5System(t *testing.T, reweighted bool) *System {
	t.Helper()
	sys := NewSystem(2, core.PD2)
	for _, tk := range []*task.Task{
		task.MustNew("V", 1, 2), task.MustNew("W", 1, 3), task.MustNew("X", 1, 3),
	} {
		if err := join(sys, tk); err != nil {
			t.Fatalf("add %v: %v", tk, err)
		}
	}
	s := &Supertask{Name: "S", Components: task.Set{task.MustNew("T", 1, 5), task.MustNew("U", 1, 45)}}
	if err := joinSupertask(sys, s, reweighted); err != nil {
		t.Fatalf("add supertask: %v", err)
	}
	if err := join(sys, task.MustNew("Y", 2, 9)); err != nil {
		t.Fatalf("add Y: %v", err)
	}
	return sys
}

// TestFig5SupertaskMiss reproduces the paper's Figure 5: component T
// misses a deadline at time 10 because no quantum is allocated to S in
// [5, 10), even though S receives its full 2/9 entitlement.
func TestFig5SupertaskMiss(t *testing.T) {
	sys := fig5System(t, false)
	res := sys.Run(90)
	if len(res.Scheduler.Misses) != 0 {
		t.Fatalf("the supertask itself missed a Pfair window: %+v", res.Scheduler.Misses[0])
	}
	if len(res.ComponentMisses) == 0 {
		t.Fatal("no component miss; Figure 5 not reproduced")
	}
	first := res.ComponentMisses[0]
	if first.Component != "T" || first.Deadline != 10 {
		t.Errorf("first component miss = %+v, want T at deadline 10", first)
	}
	if res.Served["S"] == 0 {
		t.Fatal("S was never served")
	}
}

// TestFig5ReweightingFixes: inflating S's weight by 1/p_min = 1/5 (to
// 2/9 + 1/5 = 19/45) removes every component miss, per Holman–Anderson.
func TestFig5ReweightingFixes(t *testing.T) {
	s := &Supertask{Name: "S", Components: task.Set{task.MustNew("T", 1, 5), task.MustNew("U", 1, 45)}}
	w, err := s.ReweightedWeight()
	if err != nil {
		t.Fatal(err)
	}
	if w.Cmp(rational.New(19, 45)) != 0 {
		t.Fatalf("reweighted weight = %v, want 19/45", w)
	}
	sys := fig5System(t, true)
	res := sys.Run(900)
	if len(res.ComponentMisses) != 0 {
		t.Fatalf("reweighted supertask still missed: %+v", res.ComponentMisses[0])
	}
	if len(res.Scheduler.Misses) != 0 {
		t.Fatalf("global miss: %+v", res.Scheduler.Misses[0])
	}
}

func TestWeights(t *testing.T) {
	s := &Supertask{Name: "S", Components: task.Set{task.MustNew("T", 1, 5), task.MustNew("U", 1, 45)}}
	w, err := s.Weight()
	if err != nil {
		t.Fatal(err)
	}
	if w.Cmp(rational.New(2, 9)) != 0 {
		t.Errorf("Weight = %v, want 2/9", w)
	}
	// Overweight bundles are rejected.
	over := &Supertask{Name: "O", Components: task.Set{task.MustNew("A", 2, 3), task.MustNew("B", 2, 3)}}
	if _, err := over.Weight(); err == nil {
		t.Error("cumulative weight > 1 accepted")
	}
	empty := &Supertask{Name: "E"}
	if _, err := empty.ReweightedWeight(); err == nil {
		t.Error("empty supertask accepted")
	}
}

// TestReweightedRandomNoMisses: the 1/p_min inflation guarantees component
// deadlines across random bundles (Holman–Anderson sufficiency).
func TestReweightedRandomNoMisses(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		// Build a bundle with cumulative weight ≤ 1/2 so the +1/p_min
		// inflation keeps it under one processor.
		var comps task.Set
		budget := rational.NewAcc()
		pmin := int64(1 << 30)
		for i := 0; i < 4; i++ {
			p := int64(4 + r.Intn(12))
			e := int64(1 + r.Intn(2))
			w := rational.New(e, p)
			if budget.Clone().Add(w).Cmp(rational.New(1, 2)) > 0 {
				continue
			}
			budget.Add(w)
			comps = append(comps, task.MustNew(string(rune('a'+i)), e, p))
			if p < pmin {
				pmin = p
			}
		}
		if len(comps) == 0 {
			continue
		}
		sys := NewSystem(2, core.PD2)
		st := &Supertask{Name: "S", Components: comps}
		if err := joinSupertask(sys, st, true); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Competing load.
		if err := join(sys, task.MustNew("bg1", 1, 2)); err != nil {
			t.Fatal(err)
		}
		if err := join(sys, task.MustNew("bg2", 2, 5)); err != nil {
			t.Fatal(err)
		}
		res := sys.Run(3000)
		if len(res.ComponentMisses) != 0 {
			t.Fatalf("trial %d: reweighted bundle %v missed: %+v", trial, comps, res.ComponentMisses[0])
		}
	}
}

// TestEntitlementExact: over any whole number of supertask periods, PD²
// delivers the supertask exactly weight·horizon quanta — the supertask's
// Pfair entitlement is honored even in the failing Figure 5 scenario (the
// problem is *when* the quanta arrive, not how many).
func TestEntitlementExact(t *testing.T) {
	sys := fig5System(t, false)
	const periods = 10
	horizon := int64(9 * periods) // S has weight 2/9
	res := sys.Run(horizon)
	want := int64(2 * periods)
	if got := res.Served["S"]; got != want {
		t.Errorf("S served %d quanta over %d slots, want %d", got, horizon, want)
	}
}

// TestInternalEDFOrder: a quantum goes to the released component with the
// earliest deadline.
func TestInternalEDFOrder(t *testing.T) {
	sys := NewSystem(1, core.PD2)
	st := &Supertask{Name: "S", Components: task.Set{task.MustNew("slow", 1, 40), task.MustNew("fast", 1, 8)}}
	if err := joinSupertask(sys, st, false); err != nil {
		t.Fatal(err)
	}
	res := sys.Run(400)
	// fast (deadline every 8) must never miss: it always outranks slow.
	for _, m := range res.ComponentMisses {
		if m.Component == "fast" {
			t.Fatalf("fast component missed despite EDF priority: %+v", m)
		}
	}
}

// TestWastedQuanta: a supertask whose components are all idle wastes its
// quantum, and the counter records it.
func TestWastedQuanta(t *testing.T) {
	sys := NewSystem(1, core.PD2)
	// One component of weight 1/10 inside a supertask competing at 1/2:
	// most quanta arrive with no released work.
	st := &Supertask{Name: "S", Components: task.Set{task.MustNew("a", 1, 10)}}
	if err := joinSupertask(sys, st, false); err == nil {
		// Weight is 1/10; force a mismatch by using reweighting instead:
		// 1/10 + 1/10 = 1/5 competing weight for 1/10 of demand.
		t.Log("base add succeeded as expected")
	}
	res := sys.Run(200)
	_ = res
	sys2 := NewSystem(1, core.PD2)
	if err := joinSupertask(sys2, &Supertask{Name: "S", Components: task.Set{task.MustNew("a", 1, 10)}}, true); err != nil {
		t.Fatal(err)
	}
	res2 := sys2.Run(200)
	if res2.Wasted["S"] == 0 {
		t.Error("over-provisioned supertask never wasted a quantum")
	}
	if len(res2.ComponentMisses) != 0 {
		t.Errorf("component missed: %+v", res2.ComponentMisses[0])
	}
}

func TestAddErrors(t *testing.T) {
	sys := NewSystem(1, core.PD2)
	st := &Supertask{Name: "S", Components: task.Set{task.MustNew("a", 1, 2)}}
	if err := joinSupertask(sys, st, false); err != nil {
		t.Fatal(err)
	}
	if err := joinSupertask(sys, st, false); err == nil {
		t.Error("duplicate supertask accepted")
	}
	big := &Supertask{Name: "B", Components: task.Set{task.MustNew("b", 9, 10)}}
	if err := joinSupertask(sys, big, false); err == nil {
		t.Error("supertask exceeding remaining capacity accepted")
	}
}

// TestReweightedSupertaskServed: a dynamic reweight gives the supertask's
// representative a new scheduler task id; the quanta that new
// incarnation receives still go to the same bundle and counters.
func TestReweightedSupertaskServed(t *testing.T) {
	sys := NewSystem(1, core.PD2)
	if err := join(sys, task.MustNew("A", 1, 4)); err != nil {
		t.Fatal(err)
	}
	st := &Supertask{Name: "S", Components: task.Set{task.MustNew("a", 1, 10), task.MustNew("b", 1, 5)}}
	if err := joinSupertask(sys, st, false); err != nil {
		t.Fatal(err)
	}
	// Weight 3/10 for 100 slots, then 1/2 for 200: 30 + 100 quanta, of
	// which the components can use 30 + 60.
	if got := sys.Run(100).Served["S"]; got != 30 {
		t.Fatalf("S served %d quanta before the reweight, want 30", got)
	}
	if _, err := sys.Submit(admission.Reweight("S", 1, 2)); err != nil {
		t.Fatal(err)
	}
	res := sys.Run(300)
	if got, wasted := res.Served["S"], res.Wasted["S"]; got != 130 || wasted != 40 {
		t.Errorf("S served %d and wasted %d quanta by slot 300, want 130 and 40", got, wasted)
	}
	if len(res.ComponentMisses) != 0 || len(res.Scheduler.Misses) != 0 {
		t.Errorf("misses after the reweight: %d component, %d global", len(res.ComponentMisses), len(res.Scheduler.Misses))
	}
}

// TestSubmitRefusals: the system refuses what every policy refuses — a
// join that carries no task — and counts each of its own refusals, a
// duplicate supertask as a duplicate plain task is counted.
func TestSubmitRefusals(t *testing.T) {
	met := obs.NewSchedulerMetrics(nil)
	sys := NewSystem(2, core.PD2, engine.WithMetrics(met))
	st := &Supertask{Name: "S", Components: task.Set{task.MustNew("a", 1, 4)}}
	_, err := sys.Submit(admission.JoinModel(nil, st))
	if err == nil || err.Error() != "admission: join request carries no task" {
		t.Fatalf("supertask join without a task: err = %v", err)
	}
	if got := met.AdmissionRejects.Value(); got != 1 {
		t.Fatalf("rejects after a join without a task = %d, want 1", got)
	}
	if err := joinSupertask(sys, st, false); err != nil {
		t.Fatal(err)
	}
	if err := joinSupertask(sys, st, false); err == nil {
		t.Fatal("duplicate supertask accepted")
	}
	if err := join(sys, task.MustNew("A", 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := join(sys, task.MustNew("A", 1, 3)); err == nil {
		t.Fatal("duplicate task accepted")
	}
	if got, joins := met.AdmissionRejects.Value(), met.Joins.Value(); got != 3 || joins != 2 {
		t.Errorf("rejects = %d and joins = %d, want 3 and 2", got, joins)
	}
}

// TestNameReuseAfterLeave: once a supertask has left, a plain task that
// takes its name is served as itself, not as the departed bundle.
func TestNameReuseAfterLeave(t *testing.T) {
	sys := NewSystem(2, core.PD2)
	st := &Supertask{Name: "S", Components: task.Set{task.MustNew("c1", 1, 4), task.MustNew("c2", 1, 6)}}
	if err := joinSupertask(sys, st, false); err != nil {
		t.Fatal(err)
	}
	sys.Run(10)
	d, err := sys.Submit(admission.Leave("S"))
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Run(d.EffectiveAt) // the departure lands at EffectiveAt, before this join
	served, wasted := before.Served["S"], before.Wasted["S"]
	if served == 0 {
		t.Fatal("S was never served before it left")
	}
	if err := join(sys, task.MustNew("S", 1, 2)); err != nil {
		t.Fatal(err)
	}
	after := sys.Run(60)
	if after.Served["S"] != served || after.Wasted["S"] != wasted {
		t.Errorf("departed S served %d and wasted %d by slot 60, want %d and %d as at its leave (slot %d)",
			after.Served["S"], after.Wasted["S"], served, wasted, d.EffectiveAt)
	}
	// Ids are 0 for S's representative and 1 for the plain S, which
	// ran and resolved to no bundle.
	if len(sys.byID) != 2 || sys.byID[1] != nil {
		t.Errorf("plain S resolved to %v, want an ordinary task", sys.byID[1:])
	}
}

// TestSupertaskRejoinsUnderDepartedName: S joins, leaves at slot 12, and
// a new S with other components joins at slot 17. The new bundle is
// admitted and served, Served sums both stays under the one name, a
// second S is refused while the new one is live, and the schedule of the
// two representatives verifies.
func TestSupertaskRejoinsUnderDepartedName(t *testing.T) {
	sys := NewSystem(2, core.PD2)
	var rec verify.Recorder
	sys.sched.OnSlot(func(at int64, assigned []core.Assignment) {
		rec.Record(at, assigned)
		sys.afterSlot(at, assigned)
	})
	request := func(st *Supertask) admission.Request {
		req, err := JoinRequest(st, false)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	first := request(&Supertask{Name: "S", Components: task.Set{task.MustNew("c1", 1, 4), task.MustNew("c2", 1, 6)}})
	if _, err := sys.Submit(first); err != nil {
		t.Fatal(err)
	}
	sys.Run(12)
	left, err := sys.Submit(admission.Leave("S"))
	if err != nil {
		t.Fatal(err)
	}
	if left.EffectiveAt > 17 {
		t.Fatalf("S leaves at slot %d, after the rejoin at 17", left.EffectiveAt)
	}
	servedFirst := sys.Run(17).Served["S"]
	if servedFirst == 0 {
		t.Fatal("the first S was never served")
	}
	second := request(&Supertask{Name: "S", Components: task.Set{task.MustNew("d1", 1, 3), task.MustNew("d2", 1, 5)}})
	joined, err := sys.Submit(second)
	if err != nil {
		t.Fatalf("S rejoining at slot 17 after leaving at %d: %v", left.EffectiveAt, err)
	}
	if _, err := sys.Submit(request(&Supertask{Name: "S", Components: task.Set{task.MustNew("e1", 1, 8)}})); err == nil {
		t.Error("a third S joined while the second is live")
	}
	res := sys.Run(60)
	ss := sys.lookup("S")
	if ss.st != second.Model {
		t.Fatalf("lookup(S) finds %v, want the rejoined bundle", ss.st)
	}
	if ss.served == 0 || res.Served["S"] != servedFirst+ss.served {
		t.Errorf("Served[S] = %d, want the first stay's %d plus the second's %d (> 0)", res.Served["S"], servedFirst, ss.served)
	}
	for _, c := range ss.comps {
		if c.completed == 0 {
			t.Errorf("rejoined S's component %s finished no job by slot 60", c.t.Name)
		}
	}
	at := joined.EffectiveAt
	errs := verify.Check(task.Set{first.Task, second.Task}, rec.Slots, verify.Options{
		Processors: 2,
		SkipLag:    true, // lag is measured from each representative's own join
		Offsets:    []func(int64) int64{nil, func(int64) int64 { return at }},
	})
	for _, err := range errs {
		t.Error(err)
	}
}
