// Package admission is the policy-agnostic model for dynamic task
// operations: one Request/Decision pair, exact-rational feasibility
// tests, and the counting of accepted and refused transactions in a
// metrics block, shared by every engine policy that accepts mid-run
// churn.
//
// Before this package existed, the paper's §5.2 join/leave rules and
// §5.3 reweighting lived only inside core.Scheduler, and each consumer
// (internal/faults, the fuzz churn scenarios, the examples) poked
// mutations through its own seam; the sibling policies (edf, rm, wrr,
// supertask) were statically admitted. The package factors the shared
// protocol out once:
//
//	validate → feasibility-check → apply at a slot boundary →
//	emit recorder events → count the outcome
//
// A policy that accepts dynamic operations implements engine.Dynamic
// (Submit(Request) (Decision, error)) and is resolved at engine bind
// time like the other capability hooks. Each policy keeps its own
// apply-at-boundary mechanics — Pfair delays departures to the §5.2
// safe slot, the event-driven policies apply at the current instant,
// which is always a quantum boundary between engine steps — and emits
// the EvJoin/EvLeave/EvReweight events through its own recorder, as it
// emits every other event. The request model, the feasibility
// arithmetic and the admission counters are this package's.
//
// Import discipline: admission sits below the policies (engine imports
// it to declare Dynamic), so it may import only task, rational, and
// obs. The utilization and hyperbolic tests are implemented here with
// exact arithmetic.
package admission

import (
	"fmt"

	"pfair/internal/obs"
	"pfair/internal/task"
)

// Op discriminates the dynamic-task operations of §5.2–§5.3.
type Op uint8

const (
	// OpJoin admits a new task (§5.2): allowed whenever the policy's
	// feasibility condition continues to hold with the task added.
	OpJoin Op = iota
	// OpLeave removes a task at the earliest safe slot (§5.2): the
	// current instant for a task that never ran or has non-negative lag,
	// later for a Pfair task that has borrowed from the future.
	OpLeave
	// OpReweight changes a task's rate (§5.3): modelled as a leave at
	// the safe slot plus an admission-checked rejoin with the new
	// parameters at that instant.
	OpReweight

	numOps = iota
)

var opNames = [numOps]string{
	OpJoin:     "join",
	OpLeave:    "leave",
	OpReweight: "reweight",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// Request is one dynamic-task transaction, submitted to a policy's
// engine.Dynamic implementation. Exactly the fields the Op needs are
// set; Validate enforces the shape before any policy state is touched.
type Request struct {
	Op Op
	// Task is the task to admit (OpJoin only).
	Task *task.Task
	// Name names the target task (OpLeave/OpReweight).
	Name string
	// NewCost and NewPeriod are the replacement parameters (OpReweight
	// only).
	NewCost, NewPeriod int64
	// Model optionally carries a policy-specific model for OpJoin: core
	// accepts a core.ReleaseModel, the supertask system a
	// *supertask.Supertask (see supertask.JoinRequest). A policy that
	// does not understand the concrete type rejects the request.
	Model any
}

// Join returns an OpJoin request for t.
func Join(t *task.Task) Request { return Request{Op: OpJoin, Task: t} }

// JoinModel returns an OpJoin request for t with a policy-specific
// release model.
func JoinModel(t *task.Task, model any) Request {
	return Request{Op: OpJoin, Task: t, Model: model}
}

// Leave returns an OpLeave request for the named task.
func Leave(name string) Request { return Request{Op: OpLeave, Name: name} }

// Reweight returns an OpReweight request changing the named task's
// parameters to newCost/newPeriod.
func Reweight(name string, newCost, newPeriod int64) Request {
	return Request{Op: OpReweight, Name: name, NewCost: newCost, NewPeriod: newPeriod}
}

// Validate checks the request's structural shape — the right fields for
// the Op, a valid task or parameters — without consulting any policy
// state. Policies call it first in Submit so every implementation
// rejects malformed requests identically.
func (r Request) Validate() error {
	switch r.Op {
	case OpJoin:
		if r.Task == nil {
			return fmt.Errorf("admission: join request carries no task")
		}
		return r.Task.Validate()
	case OpLeave, OpReweight:
		if r.Name == "" {
			return fmt.Errorf("admission: %s request names no task", r.Op)
		}
		if r.Task != nil || r.Model != nil {
			return fmt.Errorf("admission: %s request must not carry a task or model", r.Op)
		}
		if r.Op == OpReweight && (r.NewCost < 1 || r.NewPeriod < 1 || r.NewCost > r.NewPeriod) {
			return fmt.Errorf("admission: reweight of %q to %d/%d: want 1 ≤ cost ≤ period", r.Name, r.NewCost, r.NewPeriod)
		}
	default:
		return fmt.Errorf("admission: unknown op %d", r.Op)
	}
	return nil
}

// Decision records one accepted transaction: what was done to whom, and
// the slot at which it takes (or took) effect — the current instant for
// immediate applications, the §5.2 safe departure slot for Pfair leaves
// and reweights, whose apply happens at that later boundary.
type Decision struct {
	Op   Op
	Name string
	// EffectiveAt is the engine instant the transaction's effect lands.
	EffectiveAt int64
}

func (d Decision) String() string {
	return fmt.Sprintf("%s %s @%d", d.Op, d.Name, d.EffectiveAt)
}

// Accept counts an accepted transaction in met's per-op admission
// counter (met may be nil) and returns d, so a policy's Submit can
// count and return in one expression. Policies call it exactly once per
// accepted Submit, after validation and feasibility.
func Accept(met *obs.SchedulerMetrics, d Decision) (Decision, error) {
	if met != nil {
		switch d.Op {
		case OpJoin:
			met.Joins.Inc()
		case OpLeave:
			met.Leaves.Inc()
		case OpReweight:
			met.Reweights.Inc()
		}
	}
	return d, nil
}

// Refuse counts a refused transaction in met (which may be nil) and
// returns err unchanged, so a policy's Submit can gate and return in
// one expression. The error itself is the policy's (or the feasibility
// test's).
func Refuse(met *obs.SchedulerMetrics, err error) (Decision, error) {
	if met != nil {
		met.AdmissionRejects.Inc()
	}
	return Decision{}, err
}
