// Package wrr implements a classic weighted round-robin (WRR) global
// multiprocessor scheduler, the general-purpose-OS algorithm Section 4
// relates Pfair to: "PD² can be thought of as a deadline-based variant of
// the weighted round-robin algorithm."
//
// Under WRR, ready tasks sit in a circular queue; when a task reaches the
// front it runs for a burst proportional to its weight (here: its cost e,
// so over one full cycle every task receives its period's worth of work)
// and returns to the tail. WRR provides long-run proportional shares with
// O(1) scheduling decisions, but it ignores deadlines entirely: a task's
// allocation within a cycle may arrive arbitrarily late, so tasks with
// tight windows miss deadlines on sets PD² schedules trivially. The tests
// exhibit this, making concrete what PD²'s deadline-based priorities and
// tie-breaks buy over the round-robin heritage.
package wrr

import (
	"fmt"

	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// Miss records a job that did not complete by its deadline.
type Miss struct {
	Task     string
	Job      int64
	Deadline int64
}

// Stats aggregates a run.
type Stats struct {
	Slots           int64
	Allocations     int64
	ContextSwitches int64
	Misses          []Miss
}

type wstate struct {
	t  *task.Task
	id int32 // dense observability id (queue position at construction)
	// burst is the remaining quanta of the task's current turn.
	burst int64
	// off is the slot the task's periodic lattice starts at: 0 for
	// construction-time tasks (the historical synchronous case), the join
	// slot for tasks admitted mid-run, the reweight slot after an in-place
	// reweight (the new lattice restarts there).
	off int64
	// alloc counts quanta ever allocated to the task, for EvLeave.
	alloc int64
	// Job bookkeeping against the periodic deadline lattice.
	completed int64 // fully finished jobs
	rem       int64 // remaining quanta of the head job
	// lastRun is the last slot the task received a quantum — a generation
	// flag replacing the former ran-last-slot map, so the context-switch
	// test is an O(1) field comparison.
	lastRun int64
	// lastMissedJob is the highest job index already recorded as missed;
	// job indices are monotone, so one int replaces the former per-job map.
	lastMissedJob int64
}

//pfair:hotpath
func (w *wstate) headDeadline() int64 { return w.off + (w.completed+1)*w.t.Period }

//pfair:hotpath
func (w *wstate) headRelease() int64 { return w.off + w.completed*w.t.Period }

// Scheduler is a slot-quantized global WRR scheduler on m processors,
// run as an engine.Policy. The selection scratch is preallocated so the
// steady-state slot loop is allocation-free (miss recording aside).
type Scheduler struct {
	eng    *engine.Engine
	m      int
	queue  []*wstate // circular ready order; front runs first
	stats  Stats
	onSlot func(t int64, allocated []string)
	buf    []string
	runBuf []*wstate

	// rec and met are cached from the engine; both nil when unobserved.
	// rec is a concrete pointer, nil-guarded at every emission site, so
	// the unobserved hot path costs one predictable branch each. met
	// only receives Submit's admission counts (admission.Accept/Refuse):
	// no slot path writes it, so its scheduler-wide series stay zero.
	rec *obs.Recorder
	met *obs.SchedulerMetrics

	// nextID hands out observability ids for tasks joining after
	// construction.
	nextID int32
}

// OnSlot registers a callback invoked after every slot with the names of
// the tasks that received a quantum. The slice is reused across calls.
func (s *Scheduler) OnSlot(fn func(t int64, allocated []string)) { s.onSlot = fn }

// NewScheduler returns a WRR scheduler for m processors over the given
// synchronous periodic set. Engine options attach observability
// (engine.WithRecorder / engine.WithMetrics): the run then emits
// schedule, idle, and deadline-miss events, with task ids the indices
// into set, and Submit counts admissions in the metrics block.
func NewScheduler(m int, set task.Set, opts ...engine.Option) (*Scheduler, error) {
	if m < 1 {
		return nil, fmt.Errorf("wrr: need at least one processor")
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{m: m, runBuf: make([]*wstate, 0, m)}
	for i, t := range set {
		s.queue = append(s.queue, &wstate{t: t, id: int32(i), burst: t.Cost, rem: t.Cost, lastRun: -2})
	}
	s.nextID = int32(len(set))
	s.eng = engine.New(s, opts...)
	s.rec, s.met = s.eng.Recorder(), s.eng.Metrics()
	for _, w := range s.queue {
		s.registerObs(w, 0)
	}
	return s, nil
}

// Engine returns the engine this scheduler runs on.
func (s *Scheduler) Engine() *engine.Engine { return s.eng }

// Release implements engine.Policy; WRR releases are implicit in the
// head-job release check during selection.
//
//pfair:hotpath
func (s *Scheduler) Release(t int64) {}

// Pick is the engine selection phase: the first m queue entries with
// released, unfinished work run this slot.
//
//pfair:hotpath
func (s *Scheduler) Pick(t int64) {
	running := s.runBuf[:0]
	for _, w := range s.queue {
		if len(running) == s.m {
			break
		}
		if w.rem > 0 && w.headRelease() <= t {
			running = append(running, w)
		}
	}
	s.runBuf = running
}

// Dispatch is the engine commit phase: the selection executes one quantum
// each; a task whose burst is exhausted rotates to the tail with a fresh
// burst.
//
//pfair:hotpath
func (s *Scheduler) Dispatch(t int64) {
	for k, w := range s.runBuf {
		if w.lastRun != t-1 {
			s.stats.ContextSwitches++
		}
		w.lastRun = t
		w.rem--
		w.burst--
		w.alloc++
		s.stats.Allocations++
		if rec := s.rec; rec != nil {
			rec.Emit(obs.Event{Slot: t, Kind: obs.EvSchedule, Task: w.id, Proc: int32(k), A: w.completed + 1})
		}
		if w.rem == 0 {
			// Job complete; next job's work becomes available at its
			// release.
			w.completed++
			w.rem = w.t.Cost
		}
		if w.burst == 0 {
			s.rotate(w)
		}
	}
	if rec := s.rec; rec != nil {
		for k := len(s.runBuf); k < s.m; k++ {
			rec.Emit(obs.Event{Slot: t, Kind: obs.EvIdle, Task: -1, Proc: int32(k)})
		}
	}
}

// Account is the engine accounting phase: deadline misses, counters, and
// the OnSlot callback.
//
//pfair:hotpath
func (s *Scheduler) Account(t int64) {
	// Deadline misses: the head job is released and incomplete past its
	// deadline (a caught-up task's head job is unreleased, so the
	// release check excludes it).
	for _, w := range s.queue {
		if w.headDeadline() <= t+1 && w.headRelease() <= t && w.completed+1 > w.lastMissedJob {
			w.lastMissedJob = w.completed + 1
			s.stats.Misses = append(s.stats.Misses, Miss{Task: w.t.Name, Job: w.completed + 1, Deadline: w.headDeadline()})
			if rec := s.rec; rec != nil {
				rec.Emit(obs.Event{Slot: t, Kind: obs.EvMiss, Task: w.id, Proc: -1, A: w.completed + 1, B: w.headDeadline()})
			}
		}
	}
	s.stats.Slots++
	if s.onSlot != nil {
		s.buf = s.buf[:0]
		for _, w := range s.runBuf {
			s.buf = append(s.buf, w.t.Name)
		}
		s.onSlot(t, s.buf)
	}
}

// Next implements engine.Policy: WRR is slot-driven.
//
//pfair:hotpath
func (s *Scheduler) Next(t int64) int64 { return t + 1 }

// Step schedules one slot.
func (s *Scheduler) Step() { s.eng.Step() }

// rotate moves w to the tail of the queue and recharges its burst, in
// place (no reallocation: shift the suffix left and reuse the last cell).
//
//pfair:hotpath
func (s *Scheduler) rotate(w *wstate) {
	for i, q := range s.queue {
		if q == w {
			copy(s.queue[i:], s.queue[i+1:])
			s.queue[len(s.queue)-1] = w
			break
		}
	}
	w.burst = w.t.Cost
}

// RunUntil steps to the horizon. The error is non-nil only when the
// engine's livelock backstop trips (*engine.LivelockError).
func (s *Scheduler) RunUntil(horizon int64) error {
	return s.eng.Run(horizon)
}

// Stats returns the accumulated counters.
func (s *Scheduler) Stats() Stats { return s.stats }
