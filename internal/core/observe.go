package core

import (
	"pfair/internal/obs"
)

// This file wires the observability layer (internal/obs) into the
// scheduler. The design constraint is PR 1's invariant: Step stays
// 0 allocs/op whether or not a recorder is attached, and costs one
// predictable branch per emission site when it is not. Hence:
//
//   - the scheduler holds concrete *obs.Recorder / *obs.SchedulerMetrics
//     pointers (nil = unobserved), never an interface — a nil interface
//     would still cost an itab check, and a no-op implementation would
//     still evaluate every event argument;
//   - every emission site is nil-guarded, which the extended hotpath
//     analyzer enforces statically and BenchmarkStepAllocsObserved pins
//     dynamically;
//   - identity is by dense int32 task ids assigned at admission, so hot
//     emissions never touch strings or maps;
//   - metrics are scheduler-wide only. Per-task facts come from one
//     place, an obs.Accounting attached to the recorder, which folds the
//     events the trace carries, so attaching metrics never changes the
//     trace.

// Observe attaches a trace recorder and/or metrics block to the
// scheduler; either may be nil. The attachment lives on the engine (the
// shared attachment point for every simulator); the scheduler caches the
// concrete pointers so hot emissions stay one nil check each. Tasks
// already admitted are registered immediately, tasks admitted later are
// registered as they join. Attaching mid-run is safe: events simply
// start at the current slot. Passing nil for both detaches observation
// entirely.
func (s *Scheduler) Observe(rec *obs.Recorder, met *obs.SchedulerMetrics) {
	s.eng.Observe(rec, met)
	s.adoptAttachments()
}

// adoptAttachments re-caches the engine's observability attachments and
// registers every live task with them. The ready queue and its
// comparator are the same whether or not anything is attached.
func (s *Scheduler) adoptAttachments() {
	s.rec, s.met = s.eng.Recorder(), s.eng.Metrics()
	s.plane.Observe(s.rec, s.met)
	for _, st := range s.order {
		if !st.departed {
			s.registerObs(st)
		}
	}
}

// AllocObsID hands out the next dense observability id from the
// scheduler's allocator. Wrappers that trace entities of their own beside
// the scheduler's tasks (internal/supertask's components) draw from the
// same space so ids never collide, even when tasks join later.
func (s *Scheduler) AllocObsID() int32 {
	id := s.obsNext
	s.obsNext++
	return id
}

// Metrics returns the attached metrics block, or nil.
func (s *Scheduler) Metrics() *obs.SchedulerMetrics { return s.met }

// registerObs assigns st a stable observability id (once) and registers
// it with the attached recorder; the metrics block is scheduler-wide and
// needs no per-task registration. Cold path: runs at admission and
// Observe time only.
func (s *Scheduler) registerObs(st *tstate) {
	if s.rec == nil {
		return
	}
	if st.obsID < 0 {
		st.obsID = s.obsNext
		s.obsNext++
	}
	if s.rec.RegisterTask(st.obsID, st.task.Name) {
		// First time this recorder sees the task: emit its join event,
		// whether registration happens at admission or at a mid-run
		// Observe. The slot is the current slot either way. The emission
		// goes through the admission plane so every policy narrates churn
		// identically (the event bytes are unchanged).
		s.plane.EmitJoin(s.eng.Now(), st.obsID, st.task.Cost, st.task.Period)
	}
}

// narrateBoundary explains slot t's selection boundary: why win, the
// last subtask Pick selected, ran ahead of the best subtask left in the
// ready queue. When the PD² b-bit or group-deadline rule decided that
// comparison — a deadline tie the tie-break machinery resolved — it
// emits one EvTieBreakB/EvTieBreakGroup (Task = winner, A = loser, B =
// the tied deadline) and bumps the matching metrics counter, so the
// counters and the events tell the same story. Ties decided by other
// rules (deadline, PD weights, PF recursion, id) are not narrated. The
// caller guarantees a non-empty ready queue and an attached sink.
//
//pfair:hotpath
func (s *Scheduler) narrateBoundary(t int64, win *tstate) {
	lose, _, _ := s.ready.PeekMin()
	_, why := lessWhy(s.alg, &win.pr, &lose.pr)
	kind := obs.EvTieBreakB
	switch why {
	case byBBit:
		if met := s.met; met != nil {
			met.TieBreakB.Inc()
		}
	case byGroup:
		kind = obs.EvTieBreakGroup
		if met := s.met; met != nil {
			met.TieBreakGroup.Inc()
		}
	default:
		return
	}
	if rec := s.rec; rec != nil {
		rec.Emit(obs.Event{
			Slot: t, Kind: kind,
			Task: win.obsID, Proc: -1,
			A: int64(lose.obsID), B: win.pr.deadline,
		})
	}
}
