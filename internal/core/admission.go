package core

import (
	"fmt"

	"pfair/internal/admission"
)

// This file binds the Pfair scheduler to the admission plane
// (internal/admission): Submit implements engine.Dynamic, and the
// legacy entry points — Join, JoinModel, Leave, Reweight — are thin
// shims over it, so every mutation path shares one validate →
// feasibility → apply-at-boundary → observe transaction and the
// schedules they produce are byte-identical to the pre-plane code
// (the golden equivalence suite pins this).
//
// The boundary protocol is the §5.2/§5.3 one the scheduler always
// implemented: joins land at the current instant (every instant
// between engine steps is a slot boundary), leaves and reweights are
// validated — and, for upward reweights, capacity-reserved — at
// request time but land at the task's earliest safe departure slot,
// applied at the top of that slot's Release phase. The Decision the
// ledger records carries that effective slot.

// Submit implements engine.Dynamic: one entry point for every
// dynamic-task operation, validated and feasibility-checked before any
// state changes. Accepted transactions are recorded in the plane's
// ledger; refused ones bump its reject counter and return the
// feasibility (or lookup) error unchanged.
func (s *Scheduler) Submit(req admission.Request) (admission.Decision, error) {
	if err := req.Validate(); err != nil {
		return admission.Decision{}, s.plane.Reject(req.Op, err)
	}
	switch req.Op {
	case admission.OpJoin:
		var model ReleaseModel
		if req.Model != nil {
			m, ok := req.Model.(ReleaseModel)
			if !ok {
				return admission.Decision{}, s.plane.Reject(req.Op,
					fmt.Errorf("core: join model %T does not implement core.ReleaseModel", req.Model))
			}
			model = m
		}
		if err := s.admit(req.Task, model, true, true); err != nil {
			return admission.Decision{}, s.plane.Reject(req.Op, err)
		}
		d := admission.Decision{Op: req.Op, Name: req.Task.Name, EffectiveAt: s.eng.Now()}
		s.plane.Commit(d)
		return d, nil

	case admission.OpLeave:
		at, already, err := s.leave(req.Name)
		if err != nil {
			return admission.Decision{}, s.plane.Reject(req.Op, err)
		}
		d := admission.Decision{Op: req.Op, Name: req.Name, EffectiveAt: at}
		if !already {
			// An idempotent repeat of a pending leave is answered, not
			// re-ledgered.
			s.plane.Commit(d)
		}
		return d, nil

	case admission.OpReweight:
		at, err := s.reweight(req.Name, req.NewCost, req.NewPeriod)
		if err != nil {
			return admission.Decision{}, s.plane.Reject(req.Op, err)
		}
		d := admission.Decision{Op: req.Op, Name: req.Name, EffectiveAt: at}
		s.plane.Commit(d)
		return d, nil
	}
	// Unreachable: Validate rejected unknown ops.
	return admission.Decision{}, s.plane.Reject(req.Op, fmt.Errorf("core: unhandled op %v", req.Op))
}

// AdmissionLog returns the plane's accepted-transaction ledger in
// acceptance order.
func (s *Scheduler) AdmissionLog() []admission.Decision { return s.plane.Log() }

// AdmissionRejects returns how many dynamic-task requests were refused.
func (s *Scheduler) AdmissionRejects() int64 { return s.plane.Rejects() }
