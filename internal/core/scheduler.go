package core

import (
	"fmt"
	"math/bits"
	"sort"

	"pfair/internal/admission"
	"pfair/internal/calq"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// ReleaseModel customizes when a task's subtasks arrive, implementing the
// intra-sporadic (IS) model of Section 2. The zero behaviour (a nil model)
// is a periodic task: every subtask is released exactly on its Pfair window.
type ReleaseModel interface {
	// Offset returns the cumulative IS delay θ(i) ≥ 0 of subtask i. It
	// must be non-decreasing in i. A positive jump between i−1 and i means
	// subtask i arrived late (e.g. a delayed network packet); its whole
	// window — release, deadline, group deadline — shifts right by θ(i).
	Offset(i int64) int64
	// Earliness returns how many slots before its (shifted) Pfair release
	// subtask i becomes eligible, modelling early/bursty arrivals. The
	// deadline is NOT advanced: an early packet's deadline stays where it
	// would have been had the packet arrived on time (Section 2).
	Earliness(i int64) int64
}

// Options configures a Scheduler.
type Options struct {
	// EarlyRelease enables the work-conserving ERfair variant: a subtask
	// that is not the first of its job becomes eligible as soon as its
	// predecessor completes, possibly before its Pfair release.
	EarlyRelease bool
	// NoAffinity disables the assignment rule that keeps a task scheduled
	// in consecutive slots on the same processor. The paper's preemption
	// bound min(E−1, P−E) per job relies on affinity being on; the flag
	// exists for the ablation benchmark.
	NoAffinity bool
}

// Assignment records one processor allocation in one slot.
type Assignment struct {
	Proc    int
	Task    string
	Subtask int64
}

// Miss records a subtask that could not be scheduled within its window.
type Miss struct {
	Task     string
	Subtask  int64
	Deadline int64
	// ScheduledAt is the slot in which the subtask was eventually
	// (tardily) scheduled, or −1 if it never was before the horizon.
	ScheduledAt int64
}

// Stats aggregates counters over a run.
type Stats struct {
	// Slots is the number of scheduler invocations (one per slot).
	Slots int64
	// Allocations is the total number of quanta handed to tasks.
	Allocations int64
	// ContextSwitches counts slot boundaries at which a processor begins
	// executing a task different from the one it executed in the
	// previous slot (starting after an idle slot counts too).
	ContextSwitches int64
	// Migrations counts allocations on a different processor than the
	// task's previous allocation.
	Migrations int64
	// Preemptions counts slot boundaries at which a task with an
	// in-progress job ran in the previous slot but not the current one.
	Preemptions int64
	// Misses lists every subtask deadline violation detected.
	Misses []Miss
}

type tstate struct {
	task  *task.Task
	pat   *Pattern
	model ReleaseModel
	id    int

	joinedAt int64
	index    int64 // current (next unscheduled) subtask, 1-based
	// pos is index's position within its job, (index−1) mod e, kept
	// incrementally by advanceSubtask so the hot path's first-of-job tests
	// (pos == 0: ERfair eligibility, preemption counting) need no
	// division.
	pos      int64
	pr       prio  // cached priority of the current subtask
	deadline int64 // absolute deadline of the current subtask
	elig     int64 // earliest slot the current subtask may run
	missed   bool  // current subtask already recorded as missed

	// Queue handles, allocated once at admission and reused for every
	// insertion so the per-slot loop stays allocation-free: readyEntry
	// for the ready queue, pendItem for the pending-release calendar
	// wheel.
	readyEntry *calq.Entry[*tstate]
	pendItem   *calq.Item[*tstate]

	// selSlot is the last slot in which this task was selected to run — a
	// generation flag that turns the preemption scan's membership test
	// over sel into an O(1) field comparison.
	selSlot int64
	// departed marks a tstate removed from the system (applyLeaves), so
	// stale procPrev references can be detected without a map lookup.
	departed bool
	// obsID is the task's dense observability id (see observe.go), −1
	// until the task is registered with an attached recorder.
	obsID int32

	allocated int64
	lastProc  int
	lastSlot  int64

	// Parameters of the most recently scheduled subtask, for the
	// Section 2 leave rules.
	hasScheduled  bool
	lastSchedDead int64
	lastSchedB    int
	lastSchedGrp  int64

	leaving bool
	leaveAt int64
	rejoin  *task.Task // replacement task for Reweight, joined at leaveAt
	// rejoinReserved records that the reweight's weight delta was already
	// added to the scheduler's total at request time (upward reweights
	// reserve capacity so concurrent joins cannot oversubscribe it).
	rejoinReserved bool
}

// Scheduler is a global Pfair/ERfair scheduler for m processors. It
// allocates processor time slot by slot: in each slot the m highest-priority
// eligible subtasks (under the configured Algorithm) are selected, so a task
// may migrate between slots but never runs in parallel with itself.
//
// The Scheduler is an engine.Policy: the slot loop itself lives in
// internal/engine, which owns the clock and invokes the phase methods
// (Release, Pick, Dispatch, Account, Next) in order each slot; Release
// first applies the departures due at the slot. Step and RunUntil are
// kept as thin wrappers over the bound engine so existing call sites
// read unchanged.
//
// Release timers live in a calendar wheel (internal/calq) keyed by
// eligibility slot, so releasing a slot's subtasks touches one bucket
// instead of popping a heap. The eligible set is a deadline-bucketed
// min-queue (calq.MinQueue) ordered by less, in every run: attaching a
// recorder, metrics block, or profiler never changes the data structure
// or the comparator. Tie-breaks are narrated once per slot, at the
// selection boundary (see narrateBoundary).
type Scheduler struct {
	m    int
	alg  Algorithm
	opts Options

	eng   *engine.Engine
	tasks map[string]*tstate
	// order holds every admitted task, departed ones included, in join
	// order; a task's id is its index here.
	order  []*tstate
	weight *rational.Acc

	ready     *calq.MinQueue[*tstate] // eligible subtasks, by deadline then less
	pending   *calq.Wheel[*tstate]    // future subtasks, by eligibility slot
	maxPeriod int64
	// relBits is Release's id bitset for ordering EvRelease events: one
	// bit per task id, grown at admission, all zero between slots.
	relBits []uint64

	procPrev []*tstate // task run in the previous slot, per processor
	leaves   []*tstate // tasks with a pending departure

	stats  Stats
	onSlot func(t int64, assigned []Assignment)

	// rec and met are the attached observability sinks (see observe.go);
	// both nil when unobserved. Concrete pointers, not interfaces, so the
	// unobserved hot path costs one nil check per emission site.
	rec     *obs.Recorder
	met     *obs.SchedulerMetrics
	obsNext int32

	// plane is the admission-plane ledger and event/metric fanout every
	// dynamic operation flows through (see admission.go / internal/
	// admission). Created with the scheduler; its observability
	// attachment tracks the engine's via adoptAttachments.
	plane *admission.Plane

	selBuf    []*tstate
	assignBuf []Assignment
	// procNext and taken are the assignment scratch for the current slot,
	// allocated once and cleared per Step; procNext swaps with procPrev at
	// commit so no per-slot allocation occurs.
	procNext []*tstate
	taken    []bool
}

// NewScheduler returns a scheduler for m ≥ 1 processors using the given
// algorithm, bound to a fresh engine. Engine options attach observability
// at construction (engine.WithRecorder / engine.WithMetrics), equivalent
// to calling Observe afterwards.
func NewScheduler(m int, alg Algorithm, opts Options, engOpts ...engine.Option) *Scheduler {
	s := newSchedulerState(m, alg, opts)
	s.eng = engine.New(s, engOpts...)
	s.adoptAttachments()
	return s
}

// NewSchedulerOn builds a scheduler as NewScheduler does but rebinds an
// existing engine to it instead of creating a fresh one: the engine's
// clock rewinds to zero while its observability attachments (and trace
// ring) carry over. Scenario drivers (internal/faults) use it to re-run
// variants of an experiment on one engine. A nil engine is equivalent to
// NewScheduler.
func NewSchedulerOn(e *engine.Engine, m int, alg Algorithm, opts Options) *Scheduler {
	s := newSchedulerState(m, alg, opts)
	if e == nil {
		e = engine.New(s)
	} else {
		e.Reset(s)
	}
	s.eng = e
	s.adoptAttachments()
	return s
}

// newSchedulerState builds the scheduler sans engine binding.
func newSchedulerState(m int, alg Algorithm, opts Options) *Scheduler {
	if m < 1 {
		//pfair:allowpanic constructor contract: the processor count is a static configuration value
		panic("core: scheduler needs at least one processor")
	}
	s := &Scheduler{
		m:        m,
		alg:      alg,
		opts:     opts,
		tasks:    make(map[string]*tstate),
		weight:   rational.NewAcc(),
		plane:    admission.NewPlane(),
		procPrev: make([]*tstate, m),
		procNext: make([]*tstate, m),
		taken:    make([]bool, m),
	}
	// The ready queue buckets by deadline; equal-deadline ties use the
	// full priority order, read through s.alg at comparison time (the
	// algorithm is mutable in tests). The order is total (it ends on the
	// task id), so the pop sequence is independent of insertion order.
	s.ready = calq.NewMinQueue[*tstate](minSpan, func(a, b *tstate) bool {
		return less(s.alg, &a.pr, &b.pr)
	})
	s.pending = calq.NewWheel[*tstate](minSpan)
	return s
}

// minSpan seeds the calendar structures before any task joins;
// admissions grow them to the largest period seen, capped at
// calq.DefaultSpanCap (beyond the cap rounds share buckets, which both
// structures resolve exactly at a scan cost — correctness never depends
// on the span).
const minSpan = 32

// Engine returns the engine this scheduler runs on.
func (s *Scheduler) Engine() *engine.Engine { return s.eng }

// Now returns the current slot: the next call to Step schedules slot Now().
func (s *Scheduler) Now() int64 { return s.eng.Now() }

// Processors returns m.
func (s *Scheduler) Processors() int { return s.m }

// TotalWeight returns the exact current total weight of all admitted tasks.
func (s *Scheduler) TotalWeight() *rational.Acc { return s.weight.Clone() }

// OnSlot registers a callback invoked after every slot with the slot index
// and its assignments. The assignment slice is reused; callbacks must copy
// it to retain it.
func (s *Scheduler) OnSlot(fn func(t int64, assigned []Assignment)) { s.onSlot = fn }

// Stats returns the counters accumulated so far.
func (s *Scheduler) Stats() Stats { return s.stats }

// Join admits a task at the current time. Per Section 2, a task may join
// whenever the feasibility condition Σ wt(T) ≤ M (Equation (2)) continues
// to hold. The task's first subtask is released at the current slot (plus
// any model offset). Join is a thin shim over the admission plane
// (Submit); the produced schedule is byte-identical to the pre-plane
// entry point.
func (s *Scheduler) Join(t *task.Task) error { return s.JoinModel(t, nil) }

// JoinModel admits a task with an explicit IS release model, through the
// admission plane.
func (s *Scheduler) JoinModel(t *task.Task, model ReleaseModel) error {
	var req admission.Request
	if model != nil {
		req = admission.JoinModel(t, model)
	} else {
		req = admission.Join(t)
	}
	_, err := s.Submit(req)
	return err
}

// admit installs a task. addWeight controls whether the task's weight is
// added to the running total (false when a Reweight already reserved it);
// check controls whether Equation (2) gates the admission (false for
// Reweight re-joins, which were validated at request time).
func (s *Scheduler) admit(t *task.Task, model ReleaseModel, addWeight, check bool) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if _, dup := s.tasks[t.Name]; dup {
		return fmt.Errorf("core: task %q already in system", t.Name)
	}
	w := t.Weight()
	if check && s.weight.Clone().Add(w).CmpInt(int64(s.m)) > 0 {
		return fmt.Errorf("core: admitting %v would violate Σwt ≤ %d (current Σwt = %v)", t, s.m, s.weight)
	}
	st := &tstate{
		task:     t,
		pat:      NewPattern(t.Cost, t.Period),
		model:    model,
		id:       len(s.order),
		joinedAt: s.eng.Now(),
		index:    1,
		lastProc: -1,
		lastSlot: -1,
		selSlot:  -1,
		obsID:    -1,
	}
	st.pr.pat, st.pr.id = st.pat, st.id
	st.readyEntry = calq.NewEntry(st)
	st.pendItem = calq.NewItem(st)
	if p := t.Period; p > s.maxPeriod {
		s.maxPeriod = p
		span := p
		if span > calq.DefaultSpanCap {
			span = calq.DefaultSpanCap
		}
		s.pending.EnsureSpan(span)
		s.ready.EnsureSpan(span)
	}
	if addWeight {
		s.weight.Add(w)
	}
	s.tasks[t.Name] = st
	s.order = append(s.order, st)
	// Each task owns at most one pending-wheel entry, so the task count
	// bounds any Due batch; reserving here keeps Release allocation-free.
	s.pending.Reserve(len(s.order))
	for len(s.relBits)<<6 < len(s.order) {
		s.relBits = append(s.relBits, 0)
	}
	s.registerObs(st)
	s.refreshSubtask(st)
	s.enqueue(st)
	return nil
}

// offsetOf returns the absolute window shift of subtask i: join time plus
// the IS delay θ(i). It is small enough to inline, so a periodic task's
// refresh pays no call for it.
//
//pfair:hotpath
func (st *tstate) offsetOf(i int64) int64 {
	if st.model == nil {
		return st.joinedAt
	}
	return st.joinedAt + st.delay(i)
}

// delay returns the IS delay θ(i) of a task with a release model.
//
//pfair:hotpath
func (st *tstate) delay(i int64) int64 {
	d := st.model.Offset(i)
	if d < 0 {
		//pfair:allowpanic ReleaseModel contract: offsets are cumulative delays, hence non-negative
		panic(fmt.Sprintf("core: negative IS offset %d for %s subtask %d", d, st.task.Name, i))
	}
	return d
}

// advanceSubtask moves st to its next subtask, keeping pos, the
// position within the job, by one compare.
//
//pfair:hotpath
func (st *tstate) advanceSubtask() {
	st.index++
	st.pos++
	if st.pos == st.pat.e {
		st.pos = 0
	}
}

// refreshSubtask recomputes the cached parameters (release, deadline,
// b-bit, group deadline, eligibility) for st's current subtask, the same
// way for periodic and IS tasks: the window shift offsetOf(i) plus the
// pattern's closed-form window(i) — one division — and, for heavy tasks,
// the group deadline groupAfter(d) — two more.
//
//pfair:hotpath
func (s *Scheduler) refreshSubtask(st *tstate) {
	i := st.index
	pt := st.pat
	off := st.offsetOf(i)
	r, d, b := pt.window(i)
	st.deadline = off + d
	group := int64(0)
	if pt.heavy {
		group = off + pt.groupAfter(d)
	}
	// Field by field: the pattern and id were set at admission, and a
	// whole-struct store of the pointer-holding prio costs a write
	// barrier check and a stack copy on every advance.
	st.pr.deadline = st.deadline
	st.pr.bbit = b
	st.pr.group = group
	st.pr.index = i
	st.pr.offset = off

	elig := off + r
	if st.model != nil {
		e := st.model.Earliness(i)
		if e < 0 {
			//pfair:allowpanic ReleaseModel contract: earliness values are non-negative by definition
			panic(fmt.Sprintf("core: negative earliness %d for %s subtask %d", e, st.task.Name, i))
		}
		elig -= e
	}
	if s.opts.EarlyRelease && st.pos != 0 {
		// ERfair: eligible as soon as the predecessor completes. pos == 0
		// is the first subtask of its job.
		elig = st.lastSlot + 1
	}
	// A subtask can never run before its predecessor, before the task
	// joined, or before the current slot.
	if elig < st.lastSlot+1 {
		elig = st.lastSlot + 1
	}
	if elig < st.joinedAt {
		elig = st.joinedAt
	}
	st.elig = elig
	st.missed = false
}

// enqueue places st in the ready queue or the pending wheel according to
// its eligibility. Pending insertions always satisfy elig > Now(): at
// slot t every entry with elig ≤ t goes straight to ready, so the wheel
// bucket drained by Release(t) holds exactly the slot-t releases.
func (s *Scheduler) enqueue(st *tstate) {
	if st.elig <= s.eng.Now() {
		s.ready.Add(st.readyEntry, st.deadline)
	} else {
		s.pending.Add(st.pendItem, st.elig)
	}
}

// Step schedules one slot and advances time. It returns the slot's
// assignments; the slice is reused by subsequent calls. The actual slot
// work lives in the engine phase methods below; Step merely drives the
// bound engine one step.
//
//pfair:hotpath
func (s *Scheduler) Step() []Assignment {
	s.eng.Step()
	return s.assignBuf
}

// Release is the engine release phase. It first applies the departures
// (and Reweight re-joins) due at slot t, then moves every subtask whose
// eligibility has arrived from the pending wheel to the ready queue. The
// wheel drain touches only slot t's bucket, in unspecified order; the
// ready queue pops the same sequence whatever the insertion order, since
// less is total.
//
// With a recorder attached, the slot's EvRelease events are emitted in
// task-id order without a comparison: each drained id is marked in
// relBits, and the marked words are walked low to high, each set bit
// mapping back to its task through s.order, and cleared as they are
// walked. Every entry Due(t) drains has elig == t (enqueue's invariant),
// so id order is (eligibility, id) order.
//
//pfair:hotpath
func (s *Scheduler) Release(t int64) {
	if len(s.leaves) != 0 {
		//pfair:coldcall leave and rejoin processing runs only on departure slots, not in steady state
		s.applyLeaves(t)
	}
	due := s.pending.Due(t)
	for _, st := range due {
		s.ready.Add(st.readyEntry, st.deadline)
	}
	if rec := s.rec; rec != nil {
		set := s.relBits
		lo, hi := len(set), -1
		for _, st := range due {
			w := st.id >> 6
			set[w] |= 1 << uint(st.id&63)
			lo, hi = min(lo, w), max(hi, w)
		}
		for w := lo; w <= hi; w++ {
			word := set[w]
			set[w] = 0
			for word != 0 {
				st := s.order[w<<6|bits.TrailingZeros64(word)]
				word &= word - 1
				rec.Emit(obs.Event{Slot: t, Kind: obs.EvRelease, Task: st.obsID, Proc: -1, A: st.index, B: st.deadline})
			}
		}
	}
}

// Pick is the engine selection phase: pop the m highest-priority eligible
// subtasks into the selection scratch, recording a miss for any whose
// window already closed (it runs tardily). When observed and the
// selection left an eligible subtask out, the boundary between the two
// is narrated (narrateBoundary).
//
//pfair:hotpath
func (s *Scheduler) Pick(t int64) {
	sel := s.selBuf[:0]
	for len(sel) < s.m && s.ready.Len() > 0 {
		st := s.ready.PopMin()
		st.selSlot = t
		if st.deadline <= t && !st.missed {
			// The window has closed; the subtask runs tardily.
			st.missed = true
			s.stats.Misses = append(s.stats.Misses, Miss{
				Task:        st.task.Name,
				Subtask:     st.index,
				Deadline:    st.deadline,
				ScheduledAt: t,
			})
			if rec := s.rec; rec != nil {
				rec.Emit(obs.Event{Slot: t, Kind: obs.EvMiss, Task: st.obsID, Proc: -1, A: st.index, B: st.deadline})
			}
			if met := s.met; met != nil {
				met.Misses.Inc()
				met.Tardiness.Observe(t + 1 - st.deadline)
			}
		}
		sel = append(sel, st)
	}
	s.selBuf = sel
	if (s.rec != nil || s.met != nil) && len(sel) > 0 && s.ready.Len() > 0 {
		s.narrateBoundary(t, sel[len(sel)-1])
	}
}

// Dispatch is the engine commit phase: count preemptions against the
// previous slot, place the selection on processors (affinity first), and
// commit allocations, counters, and subtask advancement.
//
//pfair:hotpath
func (s *Scheduler) Dispatch(t int64) {
	sel := s.selBuf

	// Count preemptions: a task that ran in slot t−1, has an in-progress
	// job, and was not selected for slot t. The selSlot generation flag
	// replaces the former O(m·|sel|) membership scan, and the departed
	// flag the former per-processor map lookup.
	for _, prev := range s.procPrev {
		if prev == nil || prev.lastSlot != t-1 {
			continue
		}
		if prev.selSlot != t && !prev.departed && prev.pos != 0 {
			s.stats.Preemptions++
			if rec := s.rec; rec != nil {
				rec.Emit(obs.Event{Slot: t, Kind: obs.EvPreempt, Task: prev.obsID, Proc: int32(prev.lastProc), A: prev.index})
			}
			if met := s.met; met != nil {
				met.Preemptions.Inc()
			}
		}
	}

	// Assign processors. First pass: affinity — a task that ran in the
	// previous slot keeps its processor so that continuing execution does
	// not count as a context switch (the optimization behind the paper's
	// min(E−1, P−E) preemption bound).
	assigned := s.assignBuf[:0]
	procNew := s.procNext
	taken := s.taken
	for k := range procNew {
		procNew[k] = nil
		taken[k] = false
	}
	if !s.opts.NoAffinity {
		for _, st := range sel {
			if st.lastSlot == t-1 && st.lastProc >= 0 && !taken[st.lastProc] {
				procNew[st.lastProc] = st
				taken[st.lastProc] = true
			}
		}
	}
	// Second pass: place the rest, preferring each task's previous
	// processor if free (cuts migrations after short gaps), else the
	// first free processor.
	for _, st := range sel {
		if st.lastSlot == t-1 && !s.opts.NoAffinity && st.lastProc >= 0 && procNew[st.lastProc] == st {
			continue
		}
		proc := -1
		if st.lastProc >= 0 && st.lastProc < s.m && !taken[st.lastProc] {
			proc = st.lastProc
		} else {
			for k := 0; k < s.m; k++ {
				if !taken[k] {
					proc = k
					break
				}
			}
		}
		procNew[proc] = st
		taken[proc] = true
	}

	// Commit allocations and counters.
	for k := 0; k < s.m; k++ {
		st := procNew[k]
		if st == nil {
			continue
		}
		if s.procPrev[k] != st {
			s.stats.ContextSwitches++
			if met := s.met; met != nil {
				met.ContextSwitches.Inc()
			}
		}
		if st.lastProc >= 0 && st.lastProc != k {
			s.stats.Migrations++
			if rec := s.rec; rec != nil {
				rec.Emit(obs.Event{Slot: t, Kind: obs.EvMigrate, Task: st.obsID, Proc: int32(k), A: int64(st.lastProc), B: st.index})
			}
			if met := s.met; met != nil {
				met.Migrations.Inc()
			}
		}
		st.allocated++
		st.lastProc = k
		st.lastSlot = t
		st.hasScheduled = true
		st.lastSchedDead = st.deadline
		st.lastSchedB = st.pr.bbit
		st.lastSchedGrp = st.pr.group
		s.stats.Allocations++
		if rec := s.rec; rec != nil {
			rec.Emit(obs.Event{Slot: t, Kind: obs.EvSchedule, Task: st.obsID, Proc: int32(k), A: st.index})
		}
		if met := s.met; met != nil {
			met.Allocations.Inc()
		}
		assigned = append(assigned, Assignment{Proc: k, Task: st.task.Name, Subtask: st.index})

		// Advance to the next subtask.
		st.advanceSubtask()
		s.refreshSubtask(st)
		s.pending.Add(st.pendItem, st.elig)
	}
	s.assignBuf = assigned
	if rec := s.rec; rec != nil {
		for k := 0; k < s.m; k++ {
			if procNew[k] == nil {
				rec.Emit(obs.Event{Slot: t, Kind: obs.EvIdle, Task: -1, Proc: int32(k)})
			}
		}
	}
	s.procPrev, s.procNext = procNew, s.procPrev
}

// Account is the engine accounting phase: per-slot counters, gauges, and
// the OnSlot callback.
//
//pfair:hotpath
func (s *Scheduler) Account(t int64) {
	s.stats.Slots++
	if met := s.met; met != nil {
		met.Slots.Inc()
		met.ReadyLen.Set(int64(s.ready.Len()))
		met.PendingLen.Set(int64(s.pending.Len()))
		met.Occupancy.Observe(int64(len(s.assignBuf)))
	}
	if s.onSlot != nil {
		s.onSlot(t, s.assignBuf)
	}
}

// Next implements engine.Policy: the Pfair scheduler is slot-driven.
//
//pfair:hotpath
func (s *Scheduler) Next(t int64) int64 { return t + 1 }

// RunUntil steps the scheduler until Now() == horizon. The returned
// error is non-nil only when the engine's livelock backstop trips
// (*engine.LivelockError) — impossible for this slot-driven policy, whose
// Next always advances, but surfaced so callers composing schedulers with
// event-driven policies on one engine handle every driver uniformly.
func (s *Scheduler) RunUntil(horizon int64) error {
	return s.eng.Run(horizon)
}

// FinishMisses appends, to the recorded stats, a miss for every admitted
// subtask whose deadline is at or before the horizon but which was never
// scheduled. Call it once after the final RunUntil to account for work the
// simulation ended on.
func (s *Scheduler) FinishMisses(horizon int64) {
	for _, st := range s.order {
		if st.departed {
			continue
		}
		if st.deadline <= horizon && !st.missed {
			s.stats.Misses = append(s.stats.Misses, Miss{
				Task:        st.task.Name,
				Subtask:     st.index,
				Deadline:    st.deadline,
				ScheduledAt: -1,
			})
			st.missed = true
		}
	}
}

// Lag returns the task's exact lag wt(T)·(now − join) − allocated at the
// current time. It is meaningful for periodic tasks (nil or zero-offset
// models); for IS tasks the fluid reference shifts with each delay and
// per-subtask deadlines are the correctness notion instead.
func (s *Scheduler) Lag(name string) (rational.Rat, error) {
	st, ok := s.tasks[name]
	if !ok {
		return rational.Zero(), fmt.Errorf("core: no task %q", name)
	}
	return st.pat.Lag(s.eng.Now()-st.joinedAt, st.allocated), nil
}

// Tasks returns the names of all currently admitted tasks in join order.
func (s *Scheduler) Tasks() []string {
	names := make([]string, 0, len(s.tasks))
	for _, st := range s.order {
		if !st.departed {
			names = append(names, st.task.Name)
		}
	}
	return names
}

// applyLeaves removes the tasks whose departure time has arrived at slot
// t and admits any Reweight replacements. Release calls it only when a
// departure is pending; it allocates (rejoin buffers, admission
// structures) by design.
func (s *Scheduler) applyLeaves(t int64) {
	kept := s.leaves[:0]
	var rejoins []*tstate
	for _, st := range s.leaves {
		if st.leaveAt > t {
			kept = append(kept, st)
			continue
		}
		s.ready.Remove(st.readyEntry)
		s.pending.Remove(st.pendItem)
		if !st.rejoinReserved {
			// An upward Reweight already swapped the weights at request
			// time; everything else is subtracted on departure.
			s.weight.Sub(st.task.Weight())
		}
		delete(s.tasks, st.task.Name)
		st.departed = true
		s.plane.EmitLeave(t, st.obsID, st.allocated)
		if st.rejoin != nil {
			rejoins = append(rejoins, st)
		}
	}
	s.leaves = kept
	// Sort rejoins for determinism, then admit. Re-joins bypass the
	// admission check: they were validated (and, if upward, reserved)
	// when the Reweight was requested. They are not re-ledgered either —
	// the Reweight Decision that scheduled them already is — but the
	// boundary their new weight lands on is narrated with an EvReweight
	// carrying the new incarnation's id, following its EvJoin.
	sort.Slice(rejoins, func(i, j int) bool { return rejoins[i].rejoin.Name < rejoins[j].rejoin.Name })
	for _, st := range rejoins {
		if err := s.admit(st.rejoin, nil, !st.rejoinReserved, false); err != nil {
			// Unreachable: the departed task owned the name and the
			// parameters were validated at request time.
			//pfair:allowpanic invariant: the departed task owned the name and the parameters were validated at request time
			panic(fmt.Sprintf("core: reweight re-join failed: %v", err))
		}
		nst := s.tasks[st.rejoin.Name]
		s.plane.EmitReweight(t, nst.obsID, st.rejoin.Cost, st.rejoin.Period)
	}
}
