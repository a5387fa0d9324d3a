package core

import (
	"fmt"

	"pfair/internal/admission"
)

// This file binds the Pfair scheduler to the admission model
// (internal/admission): Submit implements engine.Dynamic, and the
// legacy entry points — Join, JoinModel, Leave, Reweight — are thin
// shims over it, so every mutation path shares one validate →
// feasibility → apply-at-boundary → observe transaction (`make
// dyn-equiv` pins that both doors produce the same schedule).
//
// The boundary protocol is the §5.2/§5.3 one the scheduler always
// implemented: joins land at the current instant (every instant
// between engine steps is a slot boundary), leaves and reweights are
// validated — and, for upward reweights, capacity-reserved — at
// request time but land at the task's earliest safe departure slot,
// applied at the top of that slot's Release phase. The Decision
// carries that effective slot.

// Submit implements engine.Dynamic: one entry point for every
// dynamic-task operation, validated and feasibility-checked before any
// state changes. Accepted transactions are counted in the attached
// metrics block by op; refused ones bump its reject counter and return
// the feasibility (or lookup) error unchanged.
func (s *Scheduler) Submit(req admission.Request) (admission.Decision, error) {
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
