package core

import (
	"fmt"

	"pfair/internal/admission"
)

// This file binds the Pfair scheduler to the admission model
// (internal/admission): Submit implements engine.Dynamic and is the
// only way to change a running system. Join (scheduler.go) is
// Submit(admission.Join(t)) written out, kept for callers that only
// admit. Every join, leave and reweight shares one validate →
// feasibility → apply-at-boundary → observe transaction.
//
// The boundary protocol is the §5.2/§5.3 one: joins land at the
// current instant (every instant between engine steps is a slot
// boundary), leaves and reweights are validated — and, for upward
// reweights, capacity-reserved — at request time but land at the
// task's earliest safe departure slot, applied at the top of that
// slot's Release phase, or by a Submit made at that slot, whichever
// comes first. The Decision carries that effective slot.

// Submit implements engine.Dynamic: one entry point for every
// dynamic-task operation, validated and feasibility-checked before any
// state changes. Accepted transactions are counted in the attached
// metrics block by op; refused ones bump its reject counter and return
// the feasibility (or lookup) error unchanged. By op:
//
//   - OpJoin admits req.Task at the current slot while Σ wt(T) ≤ M
//     (Equation (2)) continues to hold; its first subtask is released
//     at that slot, shifted by req.Model, a ReleaseModel, if one is
//     given (the intra-sporadic model).
//   - OpLeave schedules the task's departure at its earliest safe slot
//     (§5.2) and reports it as EffectiveAt. The task keeps competing,
//     and receiving its share, until then; from that slot on it is
//     gone, to a Submit made at that slot too. A repeated leave before
//     then returns the pending slot and is not counted again. A leave
//     on a pending reweight keeps that reweight's slot and cancels its
//     replacement.
//   - OpReweight has the task leave at its earliest safe slot and
//     admits a replacement with the new parameters at that instant
//     (§5.3's leave-and-join), reported as EffectiveAt. The replacement
//     keeps the name but is plain periodic; to give it an IS model,
//     leave and join again with one. An upward reweight is checked
//     against Equation (2) at once and its weight delta reserved, so
//     later joins cannot oversubscribe before the swap. A downward one
//     is always accepted, even when the system is overloaded (after
//     FailProcessors): lowering a weight only helps, and this is how
//     §5.4's overload recovery sheds load.
func (s *Scheduler) Submit(req admission.Request) (admission.Decision, error) {
	s.settle()
	met := s.eng.Metrics()
	if err := req.Validate(); err != nil {
		return admission.Refuse(met, err)
	}
	switch req.Op {
	case admission.OpJoin:
		var model ReleaseModel
		if req.Model != nil {
			m, ok := req.Model.(ReleaseModel)
			if !ok {
				return admission.Refuse(met,
					fmt.Errorf("core: join model %T does not implement core.ReleaseModel", req.Model))
			}
			model = m
		}
		if err := s.admit(req.Task, model, true, true); err != nil {
			return admission.Refuse(met, err)
		}
		return admission.Accept(met, admission.Decision{Op: req.Op, Name: req.Task.Name, EffectiveAt: s.eng.Now()})

	case admission.OpLeave:
		at, already, err := s.leave(req.Name)
		if err != nil {
			return admission.Refuse(met, err)
		}
		d := admission.Decision{Op: req.Op, Name: req.Name, EffectiveAt: at}
		if already {
			// An idempotent repeat of a pending leave is answered, not
			// counted again.
			return d, nil
		}
		return admission.Accept(met, d)

	case admission.OpReweight:
		at, err := s.reweight(req.Name, req.NewCost, req.NewPeriod)
		if err != nil {
			return admission.Refuse(met, err)
		}
		return admission.Accept(met, admission.Decision{Op: req.Op, Name: req.Name, EffectiveAt: at})
	}
	// Unreachable: Validate rejected unknown ops.
	return admission.Refuse(met, fmt.Errorf("core: unhandled op %v", req.Op))
}
