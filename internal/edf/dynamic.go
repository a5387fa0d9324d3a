package edf

import (
	"fmt"

	"pfair/internal/admission"
	"pfair/internal/engine"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// This file implements engine.Dynamic for the simulator: mid-run join,
// leave, and reweight through the unified admission plane, under either
// priority rule.
//
// The simulator is event-driven, so every instant between engine steps
// is a scheduling boundary; transactions apply immediately at the
// current engine instant rather than waiting for a Pfair-style safe
// slot. The semantics are:
//
//   - Join: feasibility-checked against the rule's test over the live
//     set, then admitted with a synchronous first release at the current
//     instant. EDF uses the exact condition Σ bandwidth ≤ 1 (a served
//     task demands its server's bandwidth Q/P, an unserved one its weight
//     e/p). RM uses the hyperbolic bound Π(uᵢ+1) ≤ 2, which is sufficient
//     from any release phasing (the critical-instant argument), and takes
//     no join model, since an RM task runs no server.
//     The legacy Add entry point remains unchecked — the overload
//     experiments depend on admitting infeasible sets — so the bound
//     gates only plane-submitted joins.
//   - Leave: immediate. The task's release timer is disarmed and its
//     in-flight jobs — running, ready, and server backlog — are
//     cancelled and excluded from miss accounting: a voluntary departure
//     abandons its remaining work, and cancelling jobs can only help the
//     tasks that stay (the departing task has consumed no more than its
//     reserved share). The tstate stays in the add-order slice so
//     observability ids remain dense and stable.
//   - Reweight: leave-and-rejoin under the §5.3 model — the feasibility
//     check tests the set with the old parameters replaced by the new, the
//     old incarnation's jobs are cancelled, and the new incarnation
//     (same name, fresh obs id, ActualCost and Server carried over)
//     releases synchronously at the current instant. EvReweight follows
//     the new incarnation's EvJoin at the same instant, mirroring core.

var _ engine.Dynamic = (*Simulator)(nil)

// bandwidth returns the processor share a config demands under EDF: the
// server bandwidth for a served task, the task weight otherwise.
func bandwidth(cfg Config) rational.Rat {
	if srv := cfg.Server; srv != nil {
		return rational.New(srv.Budget, srv.Period)
	}
	return cfg.Task.Weight()
}

// feasible applies the rule's admission test to the live task set with
// the named task replaced by cfg (empty string replaces nothing).
func (s *Simulator) feasible(cfg Config, except string) error {
	if s.rm {
		live := make(task.Set, 0, len(s.tasks))
		for name, ts := range s.tasks { //pfair:orderinvariant feeds an order-independent exact product
			if name != except {
				live = append(live, ts.cfg.Task)
			}
		}
		return admission.Hyperbolic(live, cfg.Task)
	}
	total := rational.NewAcc()
	for name, ts := range s.tasks { //pfair:orderinvariant exact rational sum, order-independent
		if name != except {
			total.Add(bandwidth(ts.cfg))
		}
	}
	return admission.Utilization(total, bandwidth(cfg), rational.Zero(), 1)
}

// Submit implements engine.Dynamic: transactional join/leave/reweight
// through the admission plane. It must be called between engine steps
// (every instant there is a scheduling boundary), never from inside a
// phase method. Cold path.
func (s *Simulator) Submit(req admission.Request) (admission.Decision, error) {
	if err := req.Validate(); err != nil {
		return admission.Decision{}, s.plane.Reject(req.Op, err)
	}
	now := s.eng.Now()
	switch req.Op {
	case admission.OpJoin:
		if s.rm && req.Model != nil {
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("edf: RM takes no join model, got %T", req.Model))
		}
		cfg := Config{Task: req.Task}
		switch m := req.Model.(type) {
		case nil:
		case *CBS:
			cfg.Server = m
		case CBS:
			srv := m
			cfg.Server = &srv
		case Config:
			cfg = m
			cfg.Task = req.Task
		case *Config:
			cfg = *m
			cfg.Task = req.Task
		default:
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("edf: join model %T is not a CBS or Config", req.Model))
		}
		if err := s.feasible(cfg, ""); err != nil {
			return admission.Decision{}, s.plane.Reject(req.Op, err)
		}
		if err := s.Add(cfg); err != nil {
			return admission.Decision{}, s.plane.Reject(req.Op, err)
		}
		d := admission.Decision{Op: req.Op, Name: req.Task.Name, EffectiveAt: now}
		s.plane.Commit(d)
		return d, nil

	case admission.OpLeave:
		ts, ok := s.tasks[req.Name]
		if !ok {
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("edf: unknown task %q", req.Name))
		}
		s.remove(ts)
		s.plane.EmitLeave(now, ts.obsID, ts.executed)
		d := admission.Decision{Op: req.Op, Name: req.Name, EffectiveAt: now}
		s.plane.Commit(d)
		return d, nil

	case admission.OpReweight:
		ts, ok := s.tasks[req.Name]
		if !ok {
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("edf: unknown task %q", req.Name))
		}
		nt := *ts.cfg.Task
		nt.Cost, nt.Period = req.NewCost, req.NewPeriod
		cfg := Config{Task: &nt, ActualCost: ts.cfg.ActualCost, Server: ts.cfg.Server}
		if err := s.feasible(cfg, req.Name); err != nil {
			return admission.Decision{}, s.plane.Reject(req.Op, err)
		}
		s.remove(ts)
		if err := s.Add(cfg); err != nil {
			// Unreachable in practice (the name was just freed and the
			// parameters validated), but a rejected rejoin must still be
			// a ledgered rejection, not a silent half-applied leave.
			return admission.Decision{}, s.plane.Reject(req.Op, err)
		}
		s.plane.EmitReweight(now, s.tasks[req.Name].obsID, req.NewCost, req.NewPeriod)
		d := admission.Decision{Op: req.Op, Name: req.Name, EffectiveAt: now}
		s.plane.Commit(d)
		return d, nil
	}
	return admission.Decision{}, s.plane.Reject(req.Op,
		fmt.Errorf("admission: unknown op %d", req.Op))
}

// remove departs a task immediately: disarm its release timer, cancel
// its in-flight jobs everywhere they can live (the processor, the ready
// queue, the server backlog) and return them to the pool, and drop it
// from the live set and the name order. The tstate stays in s.order,
// marked left, so obs ids stay dense and a recorder attached later does
// not resurrect it.
func (s *Simulator) remove(ts *tstate) {
	s.relWheel.Remove(ts.relItem)
	s.relStale = true
	if s.running != nil && s.running.ts == ts {
		s.freeJob(s.running)
		s.running = nil
	}
	s.ready.Retain(func(j *job) bool {
		if j.ts != ts {
			return true
		}
		s.freeJob(j)
		return false
	})
	for _, j := range ts.backlog {
		s.freeJob(j)
	}
	ts.head = nil
	ts.backlog = nil
	ts.left = true
	delete(s.tasks, ts.cfg.Task.Name)
	s.removeRank(ts)
}

// AdmissionLog returns the accepted dynamic-task transactions in commit
// order.
func (s *Simulator) AdmissionLog() []admission.Decision { return s.plane.Log() }

// AdmissionRejects returns how many dynamic-task requests were refused.
func (s *Simulator) AdmissionRejects() int64 { return s.plane.Rejects() }
