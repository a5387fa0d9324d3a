package core

import (
	"pfair/internal/obs"
)

// This file wires the observability layer (internal/obs) into the
// scheduler. The design constraint: Step stays 0 allocs/op whether or
// not a recorder is attached, and costs one predictable branch per
// emission site when it is not. Hence:
//
//   - the scheduler holds a concrete *obs.Recorder pointer (nil =
//     unobserved), never an interface — a nil interface would still
//     cost an itab check, and a no-op implementation would still
//     evaluate every event argument;
//   - every emission site is nil-guarded, which the extended hotpath
//     analyzer enforces statically and BenchmarkStepAllocsObserved pins
//     dynamically;
//   - identity is by dense int32 task ids assigned at admission, so hot
//     emissions never touch strings or maps;
//   - no slot path touches the metrics block: PublishMetrics fills it
//     from Stats at exposition. Per-task facts come from one place, an
//     obs.Accounting attached to the recorder, which folds the events
//     the trace carries, so attaching metrics never changes the trace.

// Observe attaches a trace recorder and/or metrics block to the
// scheduler; either may be nil. The attachment lives on the engine (the
// shared attachment point for every simulator); the scheduler caches the
// recorder so hot emissions stay one nil check each. Tasks already
// admitted are registered immediately, tasks admitted later as they
// join. Attaching mid-run is safe: events simply start at the current
// slot, while PublishMetrics still reports the whole run. Passing nil
// for both detaches observation entirely.
func (s *Scheduler) Observe(rec *obs.Recorder, met *obs.SchedulerMetrics) {
	s.eng.Observe(rec, met)
	s.adoptAttachments()
}

// adoptAttachments re-caches the engine's observability attachments and
// registers every live task with them. The ready queue and its
// comparator are the same whether or not anything is attached.
func (s *Scheduler) adoptAttachments() {
	s.rec = s.eng.Recorder()
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

// PublishMetrics fills the attached metrics block (if any) from Stats,
// the queues and the recorder (obs.SchedulerMetrics.ObserveRecorder),
// overwriting what an earlier call wrote. Misses and Tardiness count
// only the tardily scheduled misses (ScheduledAt ≥ 0). Cold path: call
// before exposition.
func (s *Scheduler) PublishMetrics() {
	met := s.eng.Metrics()
	if met == nil {
		return
	}
	st := &s.stats
	met.Slots.Set(st.Slots)
	met.Allocations.Set(st.Allocations)
	met.ContextSwitches.Set(st.ContextSwitches)
	met.Migrations.Set(st.Migrations)
	met.Preemptions.Set(st.Preemptions)
	met.Tardiness.Reset()
	for _, miss := range st.Misses {
		if miss.ScheduledAt >= 0 {
			met.Tardiness.Observe(miss.ScheduledAt + 1 - miss.Deadline)
		}
	}
	met.Misses.Set(met.Tardiness.Count())
	met.Occupancy.Reset()
	for busy, n := range st.Occupancy {
		met.Occupancy.ObserveN(int64(busy), n)
	}
	met.ReadyLen.Set(int64(s.ready.Len()))
	met.PendingLen.Set(int64(s.pending.Len()))
	met.ObserveRecorder(s.rec)
}

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
		// Observe. The slot is the current slot either way.
		s.rec.Emit(obs.Event{Slot: s.eng.Now(), Kind: obs.EvJoin, Task: st.obsID, Proc: -1, A: st.task.Cost, B: st.task.Period})
	}
}

// narrateBoundary explains slot t's selection boundary: why win, the
// last subtask Pick selected, ran ahead of the best subtask left in the
// ready queue. When the PD² b-bit or group-deadline rule decided that
// comparison — a deadline tie the tie-break machinery resolved — it
// emits one EvTieBreakB/EvTieBreakGroup (Task = winner, A = loser, B =
// the tied deadline). Ties decided by other rules (deadline, PD
// weights, PF recursion, id) are not narrated. The caller guarantees a
// non-empty ready queue and an attached recorder.
//
//pfair:hotpath
func (s *Scheduler) narrateBoundary(t int64, win *tstate) {
	lose, _, _ := s.ready.PeekMin()
	kind := obs.EvTieBreakB
	switch _, why := lessWhy(s.alg, &win.pr, &lose.pr); why {
	case byBBit:
	case byGroup:
		kind = obs.EvTieBreakGroup
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
