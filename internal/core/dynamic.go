package core

import (
	"fmt"

	"pfair/internal/admission"
	"pfair/internal/task"
)

// This file implements the dynamic-task rules of Sections 2 and 5.2:
// joining (Join/JoinModel in scheduler.go), leaving, and reweighting.
//
// Joining is simple — a task may join whenever Σ wt(T) ≤ M continues to
// hold. Leaving is not: a task that is ahead of its fluid allocation
// (negative lag) has effectively borrowed processor time from the future,
// and letting it leave-and-rejoin immediately would let it run above its
// prescribed rate and cause other tasks to miss deadlines. Srinivasan and
// Anderson's conditions delay the departure just long enough:
//
//   - light T (wt < 1/2): leave at or after d(Tᵢ) + b(Tᵢ), where Tᵢ is its
//     last-scheduled subtask;
//   - heavy T: leave strictly after its next group deadline.

// earliestLeave returns the earliest slot at which st may depart without
// endangering other tasks' deadlines.
func (s *Scheduler) earliestLeave(st *tstate) int64 {
	if !st.hasScheduled {
		// The task has never received a quantum: its lag is
		// non-negative, so removing it cannot hurt anyone.
		return s.eng.Now()
	}
	var at int64
	if st.task.Heavy() {
		at = st.lastSchedGrp + 1 // strictly after the group deadline
	} else {
		at = st.lastSchedDead + int64(st.lastSchedB)
	}
	if now := s.eng.Now(); at < now {
		at = now
	}
	return at
}

// Leave schedules the named task's departure at its earliest safe time and
// returns that time. The task continues to compete (and receive its share)
// until then; from the returned slot on it no longer exists in the system.
// Leave is a thin shim over the admission plane (Submit).
func (s *Scheduler) Leave(name string) (int64, error) {
	d, err := s.Submit(admission.Leave(name))
	return d.EffectiveAt, err
}

// leave is the plane's OpLeave apply: it schedules the
// departure and reports whether the task was already leaving (the call
// is idempotent; repeats return the pending slot without re-ledgering).
func (s *Scheduler) leave(name string) (at int64, already bool, err error) {
	st, ok := s.tasks[name]
	if !ok {
		return 0, false, fmt.Errorf("core: no task %q", name)
	}
	if st.leaving {
		return st.leaveAt, true, nil
	}
	st.leaving = true
	st.leaveAt = s.earliestLeave(st)
	s.leaves = append(s.leaves, st)
	return st.leaveAt, false, nil
}

// Reweight changes a task's rate by having it leave at its earliest safe
// time and admitting a replacement with the new parameters at that instant
// (Section 5.2 models reweighting as a leave-and-join). The replacement
// keeps the task's name (but starts as a plain periodic task — attach a new
// IS model with JoinModel after an explicit Leave if one is needed). It
// returns the slot at which the new weight takes effect.
//
// An upward reweight is admission-checked immediately and its weight delta
// reserved, so later joins cannot oversubscribe the capacity before the
// swap happens. A downward reweight is always accepted — even when the
// system is already overloaded (e.g. after FailProcessors), since lowering
// a weight only helps; this is how Section 5.4's overload recovery sheds
// load from non-critical tasks.
func (s *Scheduler) Reweight(name string, newCost, newPeriod int64) (int64, error) {
	d, err := s.Submit(admission.Reweight(name, newCost, newPeriod))
	return d.EffectiveAt, err
}

// reweight is the plane's OpReweight apply: §5.3's leave-and-join, with
// the upward case admission-checked and capacity-reserved at request
// time.
func (s *Scheduler) reweight(name string, newCost, newPeriod int64) (int64, error) {
	st, ok := s.tasks[name]
	if !ok {
		return 0, fmt.Errorf("core: no task %q", name)
	}
	if st.leaving {
		return 0, fmt.Errorf("core: task %q is already leaving", name)
	}
	nt := &task.Task{
		Name:     st.task.Name,
		Cost:     newCost,
		Period:   newPeriod,
		Critical: st.task.Critical,
	}
	if err := nt.Validate(); err != nil {
		return 0, err
	}
	oldW, newW := st.task.Weight(), nt.Weight()
	upward := oldW.Less(newW)
	if upward {
		w := s.weight.Clone().Sub(oldW).Add(newW)
		if w.CmpInt(int64(s.m)) > 0 {
			return 0, fmt.Errorf("core: reweighting %s to %d/%d would violate Σwt ≤ %d", name, newCost, newPeriod, s.m)
		}
	}
	at, _, err := s.leave(name)
	if err != nil {
		return 0, err
	}
	st.rejoin = nt
	if upward {
		// Reserve the post-reweight total now.
		s.weight.Sub(oldW).Add(newW)
		st.rejoinReserved = true
	}
	return at, nil
}

// FailProcessors removes k processors from the system at the current time,
// modelling the fault scenario of Section 5.4. Tasks are not touched: if
// total weight exceeds the surviving capacity the system is overloaded and
// will record misses; if Σ wt ≤ M − k, the optimality and global nature of
// Pfair scheduling absorbs the loss transparently. It returns the new
// processor count.
func (s *Scheduler) FailProcessors(k int) int {
	if k < 0 || k >= s.m {
		//pfair:allowpanic API misuse: failing more processors than exist has no recoverable meaning
		panic("core: cannot fail that many processors")
	}
	s.m -= k
	s.procPrev = s.procPrev[:s.m]
	s.procNext = s.procNext[:s.m]
	s.taken = s.taken[:s.m]
	// Tasks whose last allocation was on a removed processor migrate.
	for _, st := range s.order {
		if st.lastProc >= s.m {
			st.lastProc = -1
		}
	}
	return s.m
}
