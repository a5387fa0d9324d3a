// Package rm implements uniprocessor rate-monotonic (RM) fixed-priority
// scheduling: the Liu–Layland and hyperbolic utilization bounds, the exact
// response-time (time-demand) schedulability test of Lehoczky, Sha, and
// Ding [25], and a preemptive fixed-priority simulator.
//
// The paper discusses RM as the other popular partitioning companion
// (RM-FF, Section 3) and notes its drawbacks: the guaranteed multiprocessor
// utilization under RM-FF is only 41% (Oh & Baker [30]), and using the
// exact test instead of the 69% utilization bound turns partitioning into a
// variable-sized-bin-packing problem. This package provides both tests so
// internal/partition can exhibit exactly that trade-off.
package rm

import (
	"math"
	"sort"

	"pfair/internal/admission"
	"pfair/internal/calq"
	"pfair/internal/engine"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// LiuLaylandBound returns the classic utilization bound n·(2^{1/n} − 1) for
// n tasks; any set with Σu below it is RM-schedulable. The bound tends to
// ln 2 ≈ 0.693 as n grows.
//
//pfair:allowfloat n·(2^{1/n} − 1) is irrational; no exact rational representation exists
func LiuLaylandBound(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// SchedulableLL applies the Liu–Layland sufficient test.
//
//pfair:allowfloat the bound is irrational, so the comparison is inherently approximate; the exact RT analysis is ResponseTimes
func SchedulableLL(set task.Set) bool {
	return set.TotalUtilization() <= LiuLaylandBound(len(set))+1e-12
}

// SchedulableHyperbolic applies the (tighter, still sufficient) hyperbolic
// bound of Bini et al.: Π (uᵢ + 1) ≤ 2, evaluated in exact rational
// arithmetic so a product that lands exactly on the bound is classified
// correctly rather than by float rounding.
func SchedulableHyperbolic(set task.Set) bool {
	prod := rational.NewAcc().SetInt(1)
	for _, t := range set {
		prod.MulRat(t.Weight().Add(rational.One()))
	}
	return prod.CmpInt(2) <= 0
}

// byRM returns the set sorted rate-monotonically: shorter period = higher
// priority, ties by name for determinism.
func byRM(set task.Set) task.Set {
	c := set.Clone()
	sort.SliceStable(c, func(i, j int) bool {
		if c[i].Period != c[j].Period {
			return c[i].Period < c[j].Period
		}
		return c[i].Name < c[j].Name
	})
	return c
}

// ResponseTimes runs the exact response-time analysis: for each task (in RM
// priority order) it solves the recurrence
//
//	R = e + Σ_{j higher priority} ⌈R/pⱼ⌉·eⱼ
//
// by fixed-point iteration. It returns the worst-case response time of each
// task in the same order as the input set, and whether every response time
// is within its task's period. Tasks whose recurrence diverges past their
// period get response −1.
func ResponseTimes(set task.Set) (responses []int64, schedulable bool) {
	ordered := byRM(set)
	resp := make(map[string]int64, len(set))
	schedulable = true
	for i, t := range ordered {
		r := t.Cost
		for {
			demand := t.Cost
			for _, h := range ordered[:i] {
				demand += ((r + h.Period - 1) / h.Period) * h.Cost
			}
			if demand == r {
				break
			}
			r = demand
			if r > t.Period {
				r = -1
				schedulable = false
				break
			}
		}
		resp[t.Name] = r
	}
	responses = make([]int64, len(set))
	for i, t := range set {
		responses[i] = resp[t.Name]
	}
	return responses, schedulable
}

// Schedulable applies the exact test.
func Schedulable(set task.Set) bool {
	_, ok := ResponseTimes(set)
	return ok
}

// Miss records a job finishing after its deadline in the simulator.
type Miss struct {
	Task     string
	Job      int64
	Deadline int64
	// FinishedAt is the completion time, or −1 if unfinished at the
	// horizon.
	FinishedAt int64
}

// Stats aggregates simulator counters.
type Stats struct {
	Jobs            int64
	Completed       int64
	Preemptions     int64
	ContextSwitches int64
	Misses          []Miss
}

type tstate struct {
	t           *task.Task
	nextRelease int64
	nextJob     int64
	// rank is the task's position in name order among the live tasks: the
	// integer tie-break that orders equal-period jobs and same-instant
	// releases exactly as a Task.Name comparison would.
	rank int
	// relItem is the task's persistent release-timer handle in the
	// calendar wheel, so re-arming the timer never allocates.
	relItem *calq.Item[*tstate]
}

type job struct {
	ts        *tstate
	index     int64
	deadline  int64
	remaining int64
	missed    bool
	// entry is the job's ready-queue handle, embedded so it is allocated
	// with the job and kept across pool reuse: queueing never allocates.
	entry calq.Entry[*job]
}

// jobLess is RM priority: (period, rank, index), the same total order as
// (period, Name, index) over the live tasks.
//
//pfair:hotpath
func jobLess(a, b *job) bool {
	if a.ts.t.Period != b.ts.t.Period {
		return a.ts.t.Period < b.ts.t.Period
	}
	if a.ts.rank != b.ts.rank {
		return a.ts.rank < b.ts.rank
	}
	return a.index < b.index
}

// Simulator is an event-driven preemptive fixed-priority (RM) simulator
// with synchronous first releases, used to cross-validate the analytical
// tests (the critical-instant theorem makes the synchronous pattern the
// worst case).
//
// The Simulator is an engine.Policy: the engine visits exactly the event
// instants (releases and completions) that Next computes.
type Simulator struct {
	eng   *engine.Engine
	now   int64 // internal execution clock; trails the engine inside Run
	tasks map[string]*tstate
	// byName holds the live tasks in name order; each task's rank is its
	// index here.
	byName []*tstate
	// ready holds the ready jobs keyed by period, ties by (rank, index).
	ready *calq.MinQueue[*job]
	// Release timers live in the calendar wheel, spanning the longest
	// period up to calq.DefaultSpanCap; sparser timers cost an exact scan
	// in NextOccupied, never correctness.
	relWheel *calq.Wheel[*tstate]
	running  *job
	stats    Stats
	// free is the pool of retired job records, reused by releaseOne.
	free []*job
	// plane is the admission-plane ledger behind Submit. RM has no trace
	// integration, so the plane carries decisions and metrics only.
	plane *admission.Plane
}

// NewSimulator returns an empty simulator at time 0.
func NewSimulator(set task.Set, opts ...engine.Option) *Simulator {
	s := &Simulator{tasks: make(map[string]*tstate, len(set))}
	s.ready = calq.NewMinQueue(1, jobLess)
	s.relWheel = calq.NewWheel[*tstate](1)
	s.plane = admission.NewPlane()
	s.eng = engine.New(s, opts...)
	s.plane.Observe(nil, s.eng.Metrics())
	for _, t := range set {
		s.admit(t)
	}
	return s
}

// Engine returns the engine this simulator runs on.
func (s *Simulator) Engine() *engine.Engine { return s.eng }

// Stats returns the counters accumulated so far.
func (s *Simulator) Stats() Stats { return s.stats }

// Run advances the simulation to the horizon. A non-nil error
// (*engine.LivelockError) means the policy stopped advancing time; the
// horizon accounting is skipped because the run never reached it.
func (s *Simulator) Run(horizon int64) error {
	if err := s.eng.Run(horizon); err != nil {
		return err
	}
	s.atHorizon(horizon)
	// Account jobs cut off by the horizon.
	record := func(j *job) {
		if j != nil && !j.missed && j.deadline <= horizon {
			j.missed = true
			s.stats.Misses = append(s.stats.Misses, Miss{Task: j.ts.t.Name, Job: j.index, Deadline: j.deadline, FinishedAt: -1})
		}
	}
	record(s.running)
	s.ready.Retain(func(j *job) bool {
		record(j)
		return true
	})
	return nil
}

// pendingEvent returns the running job's completion time, or MaxInt64
// when the processor is idle.
//
//pfair:hotpath
func (s *Simulator) pendingEvent() int64 {
	if s.running != nil {
		return s.now + s.running.remaining
	}
	return math.MaxInt64
}

// advance executes the running job up to t.
//
//pfair:hotpath
func (s *Simulator) advance(t int64) {
	if s.running != nil {
		s.running.remaining -= t - s.now
	}
	s.now = t
}

// complete retires the running job, recording a miss if it finished late.
//
//pfair:hotpath
func (s *Simulator) complete() {
	j := s.running
	s.running = nil
	s.stats.Completed++
	if s.now > j.deadline && !j.missed {
		j.missed = true
		s.stats.Misses = append(s.stats.Misses, Miss{Task: j.ts.t.Name, Job: j.index, Deadline: j.deadline, FinishedAt: s.now})
	}
	s.freeJob(j)
}

// Release is the engine release phase at event instant t: execute the
// running job up to t, retire a completion landing exactly at t, then
// release every job due.
//
//pfair:hotpath
func (s *Simulator) Release(t int64) {
	event := s.pendingEvent()
	s.advance(t)
	if event == t {
		s.complete()
	}
	s.releaseDue()
}

// releaseDue releases every job whose time has come and re-arms the
// timers. It drains the single due bucket and sorts the batch by rank,
// i.e. by name, since every drained timer shares the instant s.now.
//
//pfair:hotpath
func (s *Simulator) releaseDue() {
	due := s.relWheel.Due(s.now)
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j].rank < due[j-1].rank; j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	for _, ts := range due {
		s.releaseOne(ts)
	}
}

// releaseOne releases one task's due job (its timer already dequeued)
// and re-arms the timer.
//
//pfair:hotpath
func (s *Simulator) releaseOne(ts *tstate) {
	var j *job
	if n := len(s.free); n > 0 {
		j = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		j = newJob()
	}
	j.ts = ts
	j.index = ts.nextJob
	j.deadline = ts.nextRelease + ts.t.Period
	j.remaining = ts.t.Cost
	j.missed = false
	s.ready.Add(&j.entry, ts.t.Period)
	s.stats.Jobs++
	ts.nextJob++
	ts.nextRelease += ts.t.Period
	s.relWheel.Add(ts.relItem, ts.nextRelease)
}

// newJob allocates a job record, its ready-queue entry included.
//
//pfair:allowalloc pool miss only: jobs are recycled through the free list, so allocations are bounded by the peak number of jobs alive at once
func newJob() *job {
	j := &job{}
	j.entry.Value = j
	return j
}

// freeJob returns a completed or cancelled job to the pool.
//
//pfair:hotpath
func (s *Simulator) freeJob(j *job) {
	j.ts = nil
	s.free = append(s.free, j)
}

// Pick implements engine.Policy; the ready queue is already
// priority-ordered, so selection happens in Dispatch's peek.
//
//pfair:hotpath
func (s *Simulator) Pick(t int64) {}

// Dispatch implements engine.Policy: one scheduler invocation.
//
//pfair:hotpath
func (s *Simulator) Dispatch(t int64) { s.dispatch() }

// Account implements engine.Policy; RM accounting happens in the event
// handlers.
//
//pfair:hotpath
func (s *Simulator) Account(t int64) {}

// Next returns the next event instant: the earliest pending release or
// the running job's completion.
//
//pfair:hotpath
func (s *Simulator) Next(t int64) int64 {
	nextRel := int64(math.MaxInt64)
	if nr, ok := s.relWheel.NextOccupied(s.now); ok {
		nextRel = nr
	}
	if event := s.pendingEvent(); event < nextRel {
		return event
	}
	return nextRel
}

// atHorizon closes out a Run: the running job executes up to the horizon,
// and a completion landing exactly on it is still processed (followed by
// one dispatch) — but releases at the horizon fall outside the simulated
// window [0, horizon).
func (s *Simulator) atHorizon(horizon int64) {
	if s.now >= horizon {
		return
	}
	event := s.pendingEvent()
	s.advance(horizon)
	if event == horizon {
		s.complete()
		s.dispatch()
	}
}

// dispatch is the scheduler invocation: the ready queue's top job takes
// an idle processor, or preempts the running job when its task has a
// strictly higher priority (period, then rank).
//
//pfair:hotpath
func (s *Simulator) dispatch() {
	top, _, ok := s.ready.PeekMin()
	if !ok {
		return
	}
	switch {
	case s.running == nil:
		s.ready.PopMin()
		s.running = top
		s.stats.ContextSwitches++
	case top.ts.t.Period < s.running.ts.t.Period ||
		(top.ts.t.Period == s.running.ts.t.Period && top.ts.rank < s.running.ts.rank):
		s.ready.PopMin()
		s.ready.Add(&s.running.entry, s.running.ts.t.Period)
		s.stats.Preemptions++
		s.stats.ContextSwitches++
		s.running = top
	}
}
