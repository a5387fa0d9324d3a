package wrr

import (
	"fmt"

	"pfair/internal/admission"
	"pfair/internal/engine"
	"pfair/internal/rational"
)

// This file implements engine.Dynamic for the WRR scheduler: mid-run
// join, leave, and reweight through the unified admission plane.
//
// WRR is slot-driven, so every instant between engine steps is a slot
// boundary; transactions apply at the current engine instant (the next
// slot to run). The semantics are:
//
//   - Join: gated on the capacity condition Σ wt ≤ m over the
//     prospective queue — WRR has no deadline guarantee to protect
//     (tasks with tight windows miss regardless; that is the package's
//     point), but admitting beyond total capacity would starve shares
//     outright. The task enters at the tail of the round-robin queue
//     with its periodic lattice anchored at the join slot.
//   - Leave: immediate in-place removal from the queue; the departing
//     task's unfinished head job is abandoned and excluded from further
//     miss accounting.
//   - Reweight: in place, under the same id — WRR has no per-job state
//     worth carrying over, so the task simply restarts its lattice at
//     the reweight slot with the new parameters, a fresh burst, and a
//     tail position (a weight change re-enters the round). EvReweight
//     therefore carries the task's existing id, the in-place variant
//     obs.Accounting rebaselines on.

var _ engine.Dynamic = (*Scheduler)(nil)

// totalWeight returns the exact weight sum of the current queue,
// excluding the named task (empty string excludes nothing).
func (s *Scheduler) totalWeight(except string) *rational.Acc {
	total := rational.NewAcc()
	for _, w := range s.queue {
		if w.t.Name == except {
			continue
		}
		total.Add(w.t.Weight())
	}
	return total
}

// find returns the queue entry with the given name, or nil.
func (s *Scheduler) find(name string) *wstate {
	for _, w := range s.queue {
		if w.t.Name == name {
			return w
		}
	}
	return nil
}

// unqueue removes w from the circular queue in place.
func (s *Scheduler) unqueue(w *wstate) {
	for i, q := range s.queue {
		if q == w {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// Submit implements engine.Dynamic: transactional join/leave/reweight
// through the admission plane. It must be called between engine steps,
// never from inside a phase method. Cold path.
func (s *Scheduler) Submit(req admission.Request) (admission.Decision, error) {
	if err := req.Validate(); err != nil {
		return admission.Decision{}, s.plane.Reject(req.Op, err)
	}
	now := s.eng.Now()
	switch req.Op {
	case admission.OpJoin:
		if req.Model != nil {
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("wrr: join model %T is not supported", req.Model))
		}
		if s.find(req.Task.Name) != nil {
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("wrr: task %q already admitted", req.Task.Name))
		}
		if err := admission.Utilization(s.totalWeight(""), req.Task.Weight(), rational.Zero(), int64(s.m)); err != nil {
			return admission.Decision{}, s.plane.Reject(req.Op, err)
		}
		w := &wstate{t: req.Task, id: s.nextID, burst: req.Task.Cost, rem: req.Task.Cost, lastRun: -2, off: now}
		s.nextID++
		s.queue = append(s.queue, w)
		if rec := s.rec; rec != nil {
			if rec.RegisterTask(w.id, w.t.Name) {
				s.plane.EmitJoin(now, w.id, w.t.Cost, w.t.Period)
			}
		}
		d := admission.Decision{Op: req.Op, Name: req.Task.Name, EffectiveAt: now}
		s.plane.Commit(d)
		return d, nil

	case admission.OpLeave:
		w := s.find(req.Name)
		if w == nil {
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("wrr: unknown task %q", req.Name))
		}
		s.unqueue(w)
		s.plane.EmitLeave(now, w.id, w.alloc)
		d := admission.Decision{Op: req.Op, Name: req.Name, EffectiveAt: now}
		s.plane.Commit(d)
		return d, nil

	case admission.OpReweight:
		w := s.find(req.Name)
		if w == nil {
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("wrr: unknown task %q", req.Name))
		}
		nt := *w.t
		nt.Cost, nt.Period = req.NewCost, req.NewPeriod
		if err := admission.Utilization(s.totalWeight(req.Name), nt.Weight(), rational.Zero(), int64(s.m)); err != nil {
			return admission.Decision{}, s.plane.Reject(req.Op, err)
		}
		s.unqueue(w)
		w.t = &nt
		w.burst, w.rem = nt.Cost, nt.Cost
		w.completed, w.lastMissedJob = 0, 0
		w.off = now
		s.queue = append(s.queue, w)
		s.plane.EmitReweight(now, w.id, req.NewCost, req.NewPeriod)
		d := admission.Decision{Op: req.Op, Name: req.Name, EffectiveAt: now}
		s.plane.Commit(d)
		return d, nil
	}
	return admission.Decision{}, s.plane.Reject(req.Op,
		fmt.Errorf("admission: unknown op %d", req.Op))
}

// AdmissionLog returns the accepted dynamic-task transactions in commit
// order.
func (s *Scheduler) AdmissionLog() []admission.Decision { return s.plane.Log() }

// AdmissionRejects returns how many dynamic-task requests were refused.
func (s *Scheduler) AdmissionRejects() int64 { return s.plane.Rejects() }
