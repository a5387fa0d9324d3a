package rm

import (
	"fmt"
	"sort"

	"pfair/internal/admission"
	"pfair/internal/calq"
	"pfair/internal/engine"
	"pfair/internal/task"
)

// This file implements engine.Dynamic for the RM simulator: mid-run
// join, leave, and reweight through the unified admission plane.
//
// The simulator is event-driven, so every instant between engine steps
// is a scheduling boundary; transactions apply at the current engine
// instant. Feasibility is the hyperbolic bound Π(uᵢ+1) ≤ 2 over the
// prospective live set — sufficient for RM from any release phasing
// (the critical-instant argument), so a mid-run join it admits meets
// all deadlines. Leaves cancel the task's in-flight jobs (running and
// ready) and exclude them from miss accounting: a voluntary departure
// abandons its remaining work, and removing a task can only help the
// ones that stay. Reweight is leave-and-rejoin: the bound is checked
// with the old parameters replaced by the new, and the new incarnation
// releases synchronously at the current instant.
//
// RM has no trace-recorder integration, so the plane carries the
// transaction ledger and the admission counters only; no events.

var _ engine.Dynamic = (*Simulator)(nil)

// liveSet returns the live tasks, excluding the named one (empty string
// excludes nothing). The hyperbolic product is order-independent, so the
// map-order walk is fine.
func (s *Simulator) liveSet(except string) task.Set {
	set := make(task.Set, 0, len(s.tasks))
	for name, ts := range s.tasks { //pfair:orderinvariant feeds an order-independent exact product
		if name == except {
			continue
		}
		set = append(set, ts.t)
	}
	return set
}

// admit installs a validated, feasibility-checked task with its first
// release at the current engine instant, growing the timer wheel and the
// ready queue if the new period demands it. Cold path.
func (s *Simulator) admit(t *task.Task) {
	ts := &tstate{t: t, nextJob: 1, nextRelease: s.eng.Now()}
	ts.relItem = calq.NewItem(ts)
	s.tasks[t.Name] = ts
	s.insertRank(ts)
	span := min(t.Period, calq.DefaultSpanCap)
	s.relWheel.EnsureSpan(span)
	s.relWheel.Reserve(len(s.tasks))
	s.ready.EnsureSpan(span)
	s.relWheel.Add(ts.relItem, ts.nextRelease)
}

// insertRank places a new live task in name order and renumbers the
// ranks from its position on. Ranks of the tasks already queued keep
// their relative order, so the ready queue stays valid. Cold path.
func (s *Simulator) insertRank(ts *tstate) {
	name := ts.t.Name
	i := sort.Search(len(s.byName), func(k int) bool { return s.byName[k].t.Name > name })
	s.byName = append(s.byName, nil)
	copy(s.byName[i+1:], s.byName[i:])
	s.byName[i] = ts
	s.renumber(i)
}

// removeRank drops a departing task from name order and renumbers the
// ranks after it. Cold path; the task's jobs must already be out of the
// ready queue.
func (s *Simulator) removeRank(ts *tstate) {
	i := ts.rank
	s.byName = append(s.byName[:i], s.byName[i+1:]...)
	s.renumber(i)
}

// renumber sets the rank of every task from position from on to its
// index in name order.
func (s *Simulator) renumber(from int) {
	for k := from; k < len(s.byName); k++ {
		s.byName[k].rank = k
	}
}

// remove departs a task immediately: disarm its release timer, cancel
// its in-flight jobs and return them to the pool, and drop it from the
// live set and the name order.
func (s *Simulator) remove(ts *tstate) {
	s.relWheel.Remove(ts.relItem)
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
	delete(s.tasks, ts.t.Name)
	s.removeRank(ts)
}

// Submit implements engine.Dynamic: transactional join/leave/reweight
// through the admission plane. It must be called between engine steps,
// never from inside a phase method. Cold path.
func (s *Simulator) Submit(req admission.Request) (admission.Decision, error) {
	if err := req.Validate(); err != nil {
		return admission.Decision{}, s.plane.Reject(req.Op, err)
	}
	now := s.eng.Now()
	switch req.Op {
	case admission.OpJoin:
		if req.Model != nil {
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("rm: join model %T is not supported", req.Model))
		}
		if _, dup := s.tasks[req.Task.Name]; dup {
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("rm: task %q already admitted", req.Task.Name))
		}
		if err := admission.Hyperbolic(s.liveSet(""), req.Task); err != nil {
			return admission.Decision{}, s.plane.Reject(req.Op, err)
		}
		s.admit(req.Task)
		d := admission.Decision{Op: req.Op, Name: req.Task.Name, EffectiveAt: now}
		s.plane.Commit(d)
		return d, nil

	case admission.OpLeave, admission.OpFinish:
		ts, ok := s.tasks[req.Name]
		if !ok {
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("rm: unknown task %q", req.Name))
		}
		s.remove(ts)
		d := admission.Decision{Op: req.Op, Name: req.Name, EffectiveAt: now}
		s.plane.Commit(d)
		return d, nil

	case admission.OpReweight:
		ts, ok := s.tasks[req.Name]
		if !ok {
			return admission.Decision{}, s.plane.Reject(req.Op,
				fmt.Errorf("rm: unknown task %q", req.Name))
		}
		nt := *ts.t
		nt.Cost, nt.Period = req.NewCost, req.NewPeriod
		if err := admission.Hyperbolic(s.liveSet(req.Name), &nt); err != nil {
			return admission.Decision{}, s.plane.Reject(req.Op, err)
		}
		s.remove(ts)
		s.admit(&nt)
		d := admission.Decision{Op: req.Op, Name: req.Name, EffectiveAt: now}
		s.plane.Commit(d)
		return d, nil
	}
	return admission.Decision{}, s.plane.Reject(req.Op,
		fmt.Errorf("admission: unknown op %d", req.Op))
}

// AdmissionLog returns the accepted dynamic-task transactions in commit
// order.
func (s *Simulator) AdmissionLog() []admission.Decision { return s.plane.Log() }

// AdmissionRejects returns how many dynamic-task requests were refused.
func (s *Simulator) AdmissionRejects() int64 { return s.plane.Rejects() }
