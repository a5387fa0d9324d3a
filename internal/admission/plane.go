package admission

import (
	"pfair/internal/obs"
)

// Plane is one policy's admission ledger plus its observability fanout:
// every accepted transaction is Committed here, every refused one
// Rejected, and the apply-at-boundary code emits the EvJoin / EvLeave /
// EvReweight trace events through the nil-guarded emission helpers so
// all policies narrate churn with one vocabulary.
//
// A Plane is owned by exactly one policy instance (one scheduler = one
// plane, mirroring the one-engine-one-arena rule) and is not safe for
// concurrent use. The recorder/metrics attachment mirrors the engine's:
// concrete pointers, nil when unobserved, swapped by Observe when the
// policy's own Observe runs.
type Plane struct {
	rec *obs.Recorder
	met *obs.SchedulerMetrics

	log     []Decision
	rejects int64
}

// NewPlane returns an empty, unobserved plane.
func NewPlane() *Plane { return &Plane{} }

// Observe attaches (or, with nils, detaches) the observability sinks
// the emission helpers and Commit fan out to. Cold path.
func (p *Plane) Observe(rec *obs.Recorder, met *obs.SchedulerMetrics) {
	p.rec, p.met = rec, met
}

// Commit records an accepted transaction in the ledger and bumps the
// per-op admission counter. Policies call it exactly once per accepted
// Submit, after validation and feasibility but before returning the
// Decision — the ledger orders transactions by acceptance, not by the
// (possibly later) boundary their effect lands on.
func (p *Plane) Commit(d Decision) {
	p.log = append(p.log, d)
	if met := p.met; met != nil {
		switch d.Op {
		case OpJoin:
			met.Joins.Inc()
		case OpLeave:
			met.Leaves.Inc()
		case OpReweight:
			met.Reweights.Inc()
		}
	}
}

// Reject counts a refused transaction and returns err unchanged, so a
// policy's Submit can gate-and-return in one expression. The error
// itself is the policy's (or the feasibility test's); the plane only
// keeps the tally observable.
func (p *Plane) Reject(op Op, err error) error {
	p.rejects++
	if met := p.met; met != nil {
		met.AdmissionRejects.Inc()
	}
	return err
}

// Log returns a copy of the accepted-transaction ledger in acceptance
// order.
func (p *Plane) Log() []Decision {
	return append([]Decision(nil), p.log...)
}

// Rejects returns the number of refused transactions.
func (p *Plane) Rejects() int64 { return p.rejects }

// EmitJoin narrates a task admission: A = cost, B = period. Callers
// pass the slot the admission lands on and the policy's dense
// observability id for the task. Nil-guarded; cold path (admission).
func (p *Plane) EmitJoin(slot int64, id int32, cost, period int64) {
	if rec := p.rec; rec != nil {
		rec.Emit(obs.Event{Slot: slot, Kind: obs.EvJoin, Task: id, Proc: -1, A: cost, B: period})
	}
}

// EmitLeave narrates a task departure: A = total quanta the task was
// allocated. Nil-guarded; cold path (departure boundaries).
func (p *Plane) EmitLeave(slot int64, id int32, allocated int64) {
	if rec := p.rec; rec != nil {
		rec.Emit(obs.Event{Slot: slot, Kind: obs.EvLeave, Task: id, Proc: -1, A: allocated})
	}
}

// EmitReweight narrates a weight change taking effect: A = the new
// cost, B = the new period. For policies that model reweighting as
// leave-and-join under a fresh id (core), the event carries the new
// incarnation's id and follows its EvJoin at the same slot.
// Nil-guarded; cold path (reweight boundaries).
func (p *Plane) EmitReweight(slot int64, id int32, newCost, newPeriod int64) {
	if rec := p.rec; rec != nil {
		rec.Emit(obs.Event{Slot: slot, Kind: obs.EvReweight, Task: id, Proc: -1, A: newCost, B: newPeriod})
	}
}
