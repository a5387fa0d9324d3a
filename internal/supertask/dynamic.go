package supertask

import (
	"fmt"
	"sort"

	"pfair/internal/admission"
	"pfair/internal/engine"
	"pfair/internal/task"
)

// This file implements engine.Dynamic for the supertask system, the
// only way to admit, remove or reweight anything in it: dynamic
// operations flow through the underlying Pfair scheduler's Submit, so
// the §5.2 safe-slot rules, the Equation (2) feasibility gate, and the
// admission counters are exactly core's. The system adds the
// supertask-level bookkeeping on top:
//
//   - Joining a supertask submits its representative task (cumulative
//     weight, or the Holman–Anderson inflated weight) to the scheduler
//     and anchors every component's periodic lattice at the admission
//     slot. Build the request with JoinRequest; a plain task request
//     (no Model, or a core release model) passes straight through to
//     the scheduler.
//   - Leaving a supertask departs its representative under core's rules
//     (immediately for non-negative lag, at the §5.2 safe slot
//     otherwise) and stops charging component deadline misses from the
//     effective slot: the bundle leaves with its supertask, and a task
//     that later takes its name is an ordinary task.
//   - Reweighting a supertask changes the representative's weight via
//     core's leave-and-rejoin; the component set is unchanged. Whether
//     the new weight still covers the components (inflated or not) is
//     the caller's choice to make — exactly the §5.5 trade-off the
//     package exists to exhibit.

var _ engine.Dynamic = (*System)(nil)

// JoinRequest builds the admission request that joins st as a supertask.
// Its Task is the representative: named after st, with the cumulative
// weight, or the Holman–Anderson inflated weight (cumulative + 1/p_min)
// when reweighted is true. Its Model is st. An error means the
// component set or its weight is invalid; an inflated weight above one
// processor is one.
func JoinRequest(st *Supertask, reweighted bool) (admission.Request, error) {
	if err := st.Components.Validate(); err != nil {
		return admission.Request{}, err
	}
	w, err := st.Weight()
	if reweighted {
		w, err = st.ReweightedWeight()
	}
	if err != nil {
		return admission.Request{}, err
	}
	repr, err := task.New(st.Name, w.Num(), w.Den())
	if err != nil {
		return admission.Request{}, err
	}
	return admission.JoinModel(repr, st), nil
}

// Submit implements engine.Dynamic. A join whose Model is a *Supertask
// admits the bundle, with the request's Task as its representative in
// the scheduler. Every other request — ordinary task joins, leaves and
// reweights, by either kind of name — is forwarded to the underlying
// scheduler's Submit, with supertask-level bookkeeping layered on its
// decision. Every refusal is counted once in the attached metrics
// block: the system's own (a malformed request, a duplicate supertask)
// here, the rest by the scheduler. Cold path; call between engine
// steps.
func (sys *System) Submit(req admission.Request) (admission.Decision, error) {
	met := sys.sched.Engine().Metrics()
	if err := req.Validate(); err != nil {
		return admission.Refuse(met, err)
	}
	st, ok := req.Model.(*Supertask)
	if !ok {
		d, err := sys.sched.Submit(req)
		if err == nil && req.Op == admission.OpLeave {
			if ss := sys.live(req.Name, sys.sched.Now()); ss != nil {
				ss.leaveAt = d.EffectiveAt
			}
		}
		return d, err
	}
	// Validate refuses a model on a leave or a reweight: this is a join.
	switch {
	case st == nil:
		return admission.Refuse(met, fmt.Errorf("supertask: join model carries no supertask"))
	case req.Task.Name != st.Name:
		return admission.Refuse(met, fmt.Errorf("supertask: representative %q does not carry supertask %q's name", req.Task.Name, st.Name))
	case sys.lookup(st.Name) != nil:
		return admission.Refuse(met, fmt.Errorf("supertask %q already added", st.Name))
	}
	d, err := sys.sched.Submit(admission.Join(req.Task))
	if err != nil {
		return d, err
	}
	ss := &sstate{st: st, leaveAt: -1}
	for _, c := range st.Components {
		// The lattice anchors at the admission slot — 0 for pre-run
		// joins, the current slot for supertasks joining mid-run.
		ss.comps = append(ss.comps, &compState{t: c, obsID: -1, rem: c.Cost, off: d.EffectiveAt})
	}
	// Keep ordered sorted by name so the ComponentMisses sequence is a
	// pure function of the workload, without re-sorting every slot.
	at := sort.Search(len(sys.ordered), func(i int) bool { return sys.ordered[i].st.Name >= st.Name })
	sys.ordered = append(sys.ordered, nil)
	copy(sys.ordered[at+1:], sys.ordered[at:])
	sys.ordered[at] = ss
	sys.registerComponents(ss)
	return d, nil
}
