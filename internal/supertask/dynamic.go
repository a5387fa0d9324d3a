package supertask

import (
	"fmt"

	"pfair/internal/admission"
	"pfair/internal/engine"
	"pfair/internal/task"
)

// This file implements engine.Dynamic for the supertask system: dynamic
// operations flow through the underlying Pfair scheduler's admission
// plane, so the §5.2 safe-slot rules, the Equation (2) feasibility gate,
// and the transaction ledger are exactly core's. The system adds the
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
//     effective slot: the bundle leaves with its supertask.
//   - Reweighting a supertask changes the representative's weight via
//     core's leave-and-rejoin; the component set is unchanged. Whether
//     the new weight still covers the components (inflated or not) is
//     the caller's choice to make — exactly the §5.5 trade-off the
//     package exists to exhibit.

var _ engine.Dynamic = (*System)(nil)

// Model is the OpJoin release model for admitting a whole supertask
// through Submit: the component bundle and whether the representative
// competes with the Holman–Anderson inflated weight.
type Model struct {
	Super *Supertask
	// Reweighted selects the inflated weight (cumulative + 1/p_min).
	Reweighted bool
}

// JoinRequest builds the admission request that joins st as a supertask:
// the representative task carries the cumulative (or inflated) weight,
// and the model carries the bundle. An error means the component set or
// its weight is invalid.
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
	return admission.JoinModel(repr, Model{Super: st, Reweighted: reweighted}), nil
}

// Submit implements engine.Dynamic. Supertask joins (Model carrying a
// supertask Model) are admitted as a bundle; every other request —
// ordinary task joins, leaves and reweights, by either kind of
// name — is forwarded to the underlying scheduler's admission plane,
// with supertask-level bookkeeping layered on its decision. Structural
// errors detected before the scheduler is consulted (a duplicate
// supertask, an infeasible bundle weight) are returned directly; the
// scheduler's plane ledgers everything it sees. Cold path; call between
// engine steps.
func (sys *System) Submit(req admission.Request) (admission.Decision, error) {
	if m, ok := req.Model.(Model); ok {
		if req.Op != admission.OpJoin {
			return admission.Decision{}, fmt.Errorf("supertask: %s request must not carry a supertask model", req.Op)
		}
		if m.Super == nil {
			return admission.Decision{}, fmt.Errorf("supertask: join model carries no supertask")
		}
		if err := sys.AddSupertask(m.Super, m.Reweighted); err != nil {
			return admission.Decision{}, err
		}
		return admission.Decision{Op: admission.OpJoin, Name: m.Super.Name, EffectiveAt: sys.sched.Now()}, nil
	}
	d, err := sys.sched.Submit(req)
	if err != nil {
		return d, err
	}
	switch req.Op {
	case admission.OpLeave:
		if ss, ok := sys.supers[req.Name]; ok {
			ss.leaveAt = d.EffectiveAt
		}
	}
	return d, nil
}

// AdmissionLog returns the accepted dynamic-task transactions of the
// underlying scheduler's admission plane, in commit order.
func (sys *System) AdmissionLog() []admission.Decision { return sys.sched.AdmissionLog() }

// AdmissionRejects returns how many dynamic-task requests the underlying
// scheduler's admission plane refused.
func (sys *System) AdmissionRejects() int64 { return sys.sched.AdmissionRejects() }
