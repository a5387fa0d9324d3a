package fuzz

import (
	"slices"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/edf"
	"pfair/internal/rational"
	"pfair/internal/supertask"
	"pfair/internal/task"
	"pfair/internal/wrr"
)

// This file checks KindDynPlane: one churn script replayed against every
// policy's Submit. The legs are independent — each policy applies its
// own feasibility gate, so accept/reject sequences differ across
// policies by design — but within each leg the admission contract must
// hold: gated admissions never cost an admitted task a deadline where
// the policy guarantees one, and core ends in the state its accepted
// Decisions describe.

// Script expands the case's joins, reweights and leaves into per-slot
// admission requests. Within a slot the order is joins, then reweights,
// then leaves, each in declared task order, so every leg submits the
// identical sequence.
func (c *Case) Script() map[int64][]admission.Request {
	script := map[int64][]admission.Request{}
	for _, t := range c.Set {
		at := c.Joins[t.Name] // absent = 0, the synchronous base
		script[at] = append(script[at], admission.Join(t))
	}
	for _, t := range c.Set {
		if rw, ok := c.Reweights[t.Name]; ok {
			script[rw[0]] = append(script[rw[0]], admission.Reweight(t.Name, rw[1], rw[2]))
		}
	}
	for _, t := range c.Set {
		if at, ok := c.Leaves[t.Name]; ok {
			script[at] = append(script[at], admission.Leave(t.Name))
		}
	}
	return script
}

// checkDynPlane runs the case's churn script through every policy.
func checkDynPlane(c Case, mutant core.Algorithm) Outcome {
	var v violations
	checkCoreDynPlane(c, mutant, &v)
	checkEDFDynPlane(c, &v)
	checkRMDynPlane(c, &v)
	checkWRRDynPlane(c, &v)
	checkSupertaskDynPlane(c, mutant, &v)
	return Outcome{Violations: v.list}
}

// acceptedReq is one request Submit accepted at slot, with its Decision.
type acceptedReq struct {
	slot int64
	req  admission.Request
	d    admission.Decision
}

// runCoreDynPlane drives PD² (or its mutant) over the script through
// Submit and returns the finished scheduler and every request it
// accepted.
func runCoreDynPlane(c Case, mutant core.Algorithm) (*core.Scheduler, []acceptedReq) {
	s := core.NewScheduler(c.M, mutant, core.Options{})
	script := c.Script()
	var accepted []acceptedReq
	for slot := int64(0); slot < c.Horizon; slot++ {
		for _, req := range script[slot] {
			if d, err := s.Submit(req); err == nil {
				accepted = append(accepted, acceptedReq{slot, req, d})
			}
		}
		s.Step()
	}
	s.FinishMisses(c.Horizon)
	return s, accepted
}

// checkCoreDynPlane: every operation is feasibility-gated, so the
// system is never infeasible and the run must be miss-free; it must
// also end in the state its accepted Decisions describe
// (checkCoreEffects).
func checkCoreDynPlane(c Case, mutant core.Algorithm, v *violations) {
	s, accepted := runCoreDynPlane(c, mutant)
	if n := len(s.Stats().Misses); n > 0 {
		v.addf("dynplane/core: %d misses via Submit under gated churn", n)
	}
	checkCoreEffects(s, accepted, v)
}

// checkCoreEffects replays the accepted Decisions as §5.2/§5.3 define
// them and compares the result with the scheduler's final state. A join
// lands at once; a leave or reweight lands at its EffectiveAt once the
// run has stepped that slot, the reweight swapping in its new weight; a
// leave of a task whose reweight has not landed cancels the reweight.
// The survivors and their weights must match Tasks() and Weight(), and
// when nothing accepted is still pending, TotalWeight() their sum.
func checkCoreEffects(s *core.Scheduler, accepted []acceptedReq, v *violations) {
	type effect struct {
		w, rejoin rational.Rat // rejoin is a pending reweight's weight
		leaveAt   int64        // −1 while no leave or reweight is pending
		reweight  bool
	}
	tasks := map[string]*effect{}
	land := func(t int64) { // apply what landed before slot t
		for name, e := range tasks { //pfair:orderinvariant each task lands on its own
			if e.leaveAt >= 0 && e.leaveAt < t {
				if !e.reweight {
					delete(tasks, name)
				}
				e.w, e.leaveAt, e.reweight = e.rejoin, -1, false
			}
		}
	}
	for _, a := range accepted {
		land(a.slot)
		e := tasks[a.d.Name]
		switch {
		case a.req.Op == admission.OpJoin:
			tasks[a.d.Name] = &effect{w: a.req.Task.Weight(), leaveAt: -1}
		case e == nil:
			v.addf("dynplane/core: accepted %v of a task not in the system", a.d)
			return
		case a.req.Op == admission.OpReweight:
			e.rejoin, e.leaveAt, e.reweight = rational.New(a.req.NewCost, a.req.NewPeriod), a.d.EffectiveAt, true
		default:
			e.leaveAt, e.reweight = a.d.EffectiveAt, false
		}
	}
	now := s.Now()
	land(now)
	var want []string
	pending, sum := false, rational.NewAcc()
	for name, e := range tasks { //pfair:orderinvariant want is sorted below; Acc sums exactly
		want = append(want, name)
		pending = pending || e.leaveAt >= 0
		sum.Add(e.w)
	}
	slices.Sort(want)
	got := s.Tasks()
	slices.Sort(got)
	if !slices.Equal(got, want) {
		v.addf("dynplane/core: tasks at slot %d are %v, accepted Decisions leave %v", now, got, want)
		return
	}
	for _, name := range want {
		// Weight cannot fail here: every name in want is in Tasks().
		if w, _ := s.Weight(name); w.Cmp(tasks[name].w) != 0 {
			v.addf("dynplane/core: %s weighs %v at slot %d, accepted Decisions give %v", name, w, now, tasks[name].w)
			return
		}
	}
	if total := s.TotalWeight(); !pending && total.CmpAcc(sum) != 0 {
		v.addf("dynplane/core: Σwt = %v at slot %d, accepted Decisions give %v", total, now, sum)
	}
}

// runScriptPlane replays the script against one policy's Submit,
// advancing its clock to each operation slot first. It returns false if
// advancing livelocked (already reported).
func runScriptPlane(c Case, label string, v *violations, advance func(slot int64) error,
	submit func(req admission.Request)) bool {
	script := c.Script()
	for slot := int64(0); slot < c.Horizon; slot++ {
		reqs := script[slot]
		if len(reqs) == 0 {
			continue
		}
		if err := advance(slot); err != nil {
			v.addf("dynplane/%s: advancing to slot %d: %v", label, slot, err)
			return false
		}
		for _, req := range reqs {
			submit(req)
		}
	}
	return true
}

// checkEDFDynPlane: plane-admitted churn keeps Σ bandwidth ≤ 1 at every
// instant, departures only remove demand, and EDF is optimal on one
// processor for any release offsets — so no admitted job may miss.
func checkEDFDynPlane(c Case, v *violations) {
	sim := edf.NewSimulator()
	ok := runScriptPlane(c, "edf", v,
		func(slot int64) error { return sim.Engine().Run(slot) },
		func(req admission.Request) { sim.Submit(req) })
	if !ok {
		return
	}
	if err := sim.Run(c.Horizon); err != nil {
		v.addf("dynplane/edf: %v", err)
		return
	}
	if misses := sim.Stats().Misses; len(misses) > 0 {
		v.addf("dynplane/edf: %d misses under plane-gated churn (Σ bandwidth ≤ 1 throughout), first %+v",
			len(misses), misses[0])
	}
}

// checkRMDynPlane: the hyperbolic gate admits against the critical
// instant, which upper-bounds the interference of any actual phasing —
// so mid-run joins with synchronous first releases, and leaves that only
// remove interference, may never cost an admitted task a deadline.
func checkRMDynPlane(c Case, v *violations) {
	sim := edf.NewRMSimulator()
	ok := runScriptPlane(c, "rm", v,
		func(slot int64) error { return sim.Engine().Run(slot) },
		func(req admission.Request) { sim.Submit(req) })
	if !ok {
		return
	}
	if err := sim.Run(c.Horizon); err != nil {
		v.addf("dynplane/rm: %v", err)
		return
	}
	if misses := sim.Stats().Misses; len(misses) > 0 {
		v.addf("dynplane/rm: %d misses under hyperbolic-gated churn, first %+v", len(misses), misses[0])
	}
}

// checkWRRDynPlane: WRR guarantees no deadlines, so the leg checks that
// capacity-gated churn runs every slot without the engine tripping.
func checkWRRDynPlane(c Case, v *violations) {
	s, err := wrr.NewScheduler(c.M, nil)
	if err != nil {
		v.addf("dynplane/wrr: %v", err)
		return
	}
	ok := runScriptPlane(c, "wrr", v,
		func(slot int64) error { return s.RunUntil(slot) },
		func(req admission.Request) { s.Submit(req) })
	if !ok {
		return
	}
	if err := s.RunUntil(c.Horizon); err != nil {
		v.addf("dynplane/wrr: %v", err)
		return
	}
	if got := s.Stats().Slots; got != c.Horizon {
		v.addf("dynplane/wrr: ran %d slots, want %d", got, c.Horizon)
	}
}

// checkSupertaskDynPlane bundles the case's late joiners into one
// supertask and admits it through the system's Submit: the base tasks
// join at slot 0, the bundle joins (with the Holman–Anderson inflated
// weight) at the earliest scripted join slot, and departs at the latest
// scripted leave. Everything Submit admits is Equation (2)-feasible,
// so the global Pfair schedule must stay miss-free; component misses are
// the §5.5 trade-off and are not violations.
func checkSupertaskDynPlane(c Case, mutant core.Algorithm, v *violations) {
	var comps task.Set
	joinAt, leaveAt := int64(-1), int64(-1)
	for _, t := range c.Set {
		at := c.Joins[t.Name]
		if at == 0 {
			continue
		}
		comps = append(comps, t)
		if joinAt < 0 || at < joinAt {
			joinAt = at
		}
		if la, ok := c.Leaves[t.Name]; ok && la > leaveAt {
			leaveAt = la
		}
	}
	if len(comps) == 0 {
		return
	}
	st := &supertask.Supertask{Name: "S0", Components: comps}
	req, err := supertask.JoinRequest(st, true)
	if err != nil {
		return // the bundle exceeds one processor; not a supertask case
	}
	sys := supertask.NewSystem(c.M, mutant)
	for _, t := range c.Set {
		if c.Joins[t.Name] == 0 {
			sys.Submit(admission.Join(t))
		}
	}
	sys.Run(joinAt)
	sys.Submit(req)
	if leaveAt > joinAt {
		sys.Run(leaveAt)
		sys.Submit(admission.Leave("S0"))
	}
	res := sys.Run(c.Horizon)
	if misses := res.Scheduler.Misses; len(misses) > 0 {
		v.addf("dynplane/supertask: %d global misses under a plane-admitted bundle, first %s",
			len(misses), missText(misses[0], sys.Name))
	}
}
