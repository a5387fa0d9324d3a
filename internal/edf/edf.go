// Package edf implements uniprocessor earliest-deadline-first scheduling:
// an event-driven simulator with preemption and context-switch accounting,
// the exact utilization-based schedulability test, and constant-bandwidth
// servers (CBS) for temporal isolation.
//
// EDF is the per-processor scheduler of the paper's EDF-FF partitioning
// baseline (Section 3). The same simulator also runs the RM-FF companion:
// NewRMSimulator fixes the rate-monotonic priority rule at construction,
// under which a job's queue key is its task's period instead of its
// deadline, and Submit admits by the hyperbolic bound instead of Σu ≤ 1.
// The rule is the only difference; dispatch, accounting, churn and
// tracing are shared. internal/rm holds the RM analysis the simulator
// cross-validates.
//
// The simulator runs on the same structures as the Pfair scheduler it is
// compared with in Figure 2(a): release timers in a calendar wheel and
// ready jobs in a min-queue bucketed by priority key (internal/calq),
// ties broken by a dense integer rank that follows task name order, with
// job records pooled so the steady state allocates
// nothing. The scheduler is invoked on job releases, completions, and
// server-budget exhaustions; between events the running job executes
// undisturbed, so — unlike the slot-based Pfair schedulers — invocation
// counts are proportional to the number of jobs, not to elapsed time.
//
// Each task may declare an ActualCost function that makes some jobs run
// longer than the declared worst case. Plain EDF has no temporal isolation:
// such an overrun steals time from other tasks and causes them to miss
// deadlines. Wrapping the misbehaving task in a CBS (Section 5.3, after
// Abeni & Buttazzo [1]) restores isolation: whenever the job consumes its
// budget, the budget is replenished and the job's deadline postponed by the
// server period, pushing the excess into time reserved for later jobs.
package edf

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"pfair/internal/calq"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// CBS configures a constant-bandwidth server for one task: the task may
// consume Budget time units per Period of server bandwidth.
type CBS struct {
	Budget int64
	Period int64
}

// Config describes one task admitted to the simulator.
type Config struct {
	Task *task.Task
	// ActualCost, if non-nil, returns the real execution demand of the
	// job with the given 1-based index. A value larger than Task.Cost
	// models a misbehaving or faulty task. Nil means every job consumes
	// exactly Task.Cost.
	ActualCost func(job int64) int64
	// Server, if non-nil, runs the task inside a constant-bandwidth
	// server instead of raw EDF.
	Server *CBS
}

// Miss records a job that completed (or was still pending) after its
// deadline.
type Miss struct {
	Task     string
	Job      int64
	Deadline int64
	// FinishedAt is the completion time, or −1 if the job was still
	// unfinished at the horizon.
	FinishedAt int64
}

// Stats aggregates counters over a run.
type Stats struct {
	Jobs            int64 // jobs released
	Completed       int64
	Preemptions     int64
	ContextSwitches int64
	Invocations     int64 // scheduler decisions
	Postponements   int64 // CBS deadline postponements
	Misses          []Miss
	// SchedulingTime is the accumulated wall-clock time spent inside
	// scheduler decisions, when measurement is enabled.
	SchedulingTime time.Duration
}

type tstate struct {
	cfg         Config
	obsID       int32 // dense trace id: the task's index in add order
	nextRelease int64
	nextJob     int64 // 1-based index of the next job to release
	executed    int64 // time units this task's jobs have run, for EvLeave
	left        bool  // departed via Submit; retained in order for obs ids
	// rank is the task's position in name order among the live tasks: the
	// integer tie-break that orders equal-deadline jobs and same-instant
	// releases exactly as a Task.Name comparison would.
	rank int

	// CBS server state (Abeni & Buttazzo): a single deadline and budget
	// shared by all of the task's jobs, which are served FIFO. Only the
	// head job competes under EDF, with the server's deadline. The
	// backlog is popped by copying down, so its backing array is reused.
	budget      int64
	srvDeadline int64
	head        *job
	backlog     []*job

	// relItem is the task's persistent release-timer handle in the
	// calendar wheel, so re-arming the timer never allocates.
	relItem *calq.Item[*tstate]
}

type job struct {
	ts        *tstate
	index     int64
	key       int64 // priority and queue key: the deadline (own or server's) under EDF, the period under RM
	orig      int64 // the job's own deadline, for miss accounting
	remaining int64
	missed    bool
	// entry is the job's ready-queue handle, embedded so it is allocated
	// with the job and kept across pool reuse: queueing never allocates.
	entry calq.Entry[*job]
}

// Simulator is an event-driven uniprocessor scheduler under the EDF or
// the RM priority rule. Time units are abstract; the experiments use
// microseconds.
//
// The Simulator is an engine.Policy: the engine visits exactly the event
// instants (releases, completions, budget exhaustions) that Next computes,
// and at each one Release brings execution state current and processes the
// due event, then Dispatch reinvokes the scheduler. Same-instant
// re-invocation (Next(t) == t) occurs when a zero-budget head job takes
// the processor; the engine permits it.
type Simulator struct {
	eng   *engine.Engine
	rm    bool  // the RM rule, fixed at construction: period keys, hyperbolic admission, no servers
	now   int64 // internal execution clock; trails the engine inside Run
	tasks map[string]*tstate
	order []*tstate // add order, for deterministic obs id assignment
	// byName holds the live tasks in name order; each task's rank is its
	// index here.
	byName []*tstate
	// ready holds the ready jobs by their key (deadline or period), ties
	// by (rank, index) — the order of a (key, Name, index) comparison.
	ready *calq.MinQueue[*job]
	// Release timers live in the calendar wheel, which spans the longest
	// period up to calq.DefaultSpanCap; sparser timers cost an exact scan
	// in NextOccupied, never correctness. No timer is ever armed behind
	// s.now: Add arms at the engine instant, which s.now never passes, a
	// release re-arms a period ahead, and Next never steps past the
	// earliest timer. So NextOccupied(s.now) is the wheel's smallest
	// queued slot, a value that moves only when the wheel does, and
	// nextRel caches it: relStale is set where the wheel changes (a
	// non-empty releaseDue, Add, remove), and Next probes the wheel again
	// only then — once per release instant, not once per event.
	relWheel *calq.Wheel[*tstate]
	nextRel  int64 // earliest armed release, MaxInt64 if none; valid unless relStale
	relStale bool
	// relBits is releaseDue's rank bitset for ordering a release batch:
	// one bit per live task, grown in insertRank, all zero between
	// events.
	relBits []uint64
	running *job
	// free is the pool of retired job records, reused by releaseOne.
	free    []*job
	stats   Stats
	measure bool
	rec     *obs.Recorder
}

// NewSimulator returns an empty EDF simulator at time 0. Engine options
// attach observability at construction, equivalent to SetRecorder
// afterwards.
func NewSimulator(opts ...engine.Option) *Simulator { return newSimulator(false, opts) }

// NewRMSimulator returns an empty preemptive rate-monotonic simulator at
// time 0: shorter period is higher priority, ties by task name. Started
// synchronously, it runs the critical instant the RM analysis of
// internal/rm assumes.
func NewRMSimulator(opts ...engine.Option) *Simulator { return newSimulator(true, opts) }

func newSimulator(rm bool, opts []engine.Option) *Simulator {
	s := &Simulator{rm: rm, tasks: make(map[string]*tstate), nextRel: math.MaxInt64}
	s.ready = calq.NewMinQueue(1, jobLess)
	s.relWheel = calq.NewWheel[*tstate](1)
	s.eng = engine.New(s, opts...)
	s.rec = s.eng.Recorder()
	return s
}

// Engine returns the engine this simulator runs on.
func (s *Simulator) Engine() *engine.Engine { return s.eng }

// jobLess is the rule's priority: (key, rank, index), the same total
// order as (deadline or period, Name, index) over the live tasks.
//
//pfair:hotpath
func jobLess(a, b *job) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.ts.rank != b.ts.rank {
		return a.ts.rank < b.ts.rank
	}
	return a.index < b.index
}

// MeasureOverhead enables wall-clock timing of scheduler decisions,
// accumulated in Stats.SchedulingTime and divided by Stats.Invocations to
// reproduce Figure 2(a).
func (s *Simulator) MeasureOverhead(on bool) { s.measure = on }

// SetRecorder attaches a trace recorder (nil detaches). Releases,
// dispatches, preemptions, and deadline misses are emitted on the single
// processor lane 0; Event.Slot carries the simulator's abstract time
// units. Tasks added before and after the call are registered alike.
//
//pfair:keep test seam: edf, rm and engine tests attach a recorder after construction
func (s *Simulator) SetRecorder(rec *obs.Recorder) {
	s.eng.Observe(rec, s.eng.Metrics())
	s.rec = rec
	for _, ts := range s.order {
		if !ts.left {
			s.registerObs(ts)
		}
	}
}

func (s *Simulator) registerObs(ts *tstate) {
	if s.rec == nil {
		return
	}
	if s.rec.RegisterTask(ts.obsID, ts.cfg.Task.Name) {
		s.rec.Emit(obs.Event{Slot: s.now, Kind: obs.EvJoin, Task: ts.obsID, Proc: -1, A: ts.cfg.Task.Cost, B: ts.cfg.Task.Period})
	}
}

// Add admits a task with its first release at the current engine instant
// — time 0 when called before Run (the historical contract), the current
// instant when reached mid-run through Submit. Add itself performs no
// feasibility check (the overload experiments rely on admitting
// infeasible sets); Submit layers the rule's admission test on top.
// Under RM a task cannot run inside a CBS.
func (s *Simulator) Add(cfg Config) error {
	if err := cfg.Task.Validate(); err != nil {
		return err
	}
	if _, dup := s.tasks[cfg.Task.Name]; dup {
		return fmt.Errorf("edf: task %q already added", cfg.Task.Name)
	}
	if srv := cfg.Server; srv != nil && (srv.Budget <= 0 || srv.Period < srv.Budget) {
		return fmt.Errorf("edf: invalid CBS %+v for %s", *srv, cfg.Task.Name)
	}
	if cfg.Server != nil && s.rm {
		return fmt.Errorf("edf: %s: a CBS needs the EDF rule, not RM", cfg.Task.Name)
	}
	ts := &tstate{cfg: cfg, obsID: int32(len(s.order)), nextRelease: s.eng.Now(), nextJob: 1}
	if cfg.Server != nil {
		ts.budget = cfg.Server.Budget
	}
	s.tasks[cfg.Task.Name] = ts
	s.order = append(s.order, ts)
	s.insertRank(ts)
	s.registerObs(ts)
	ts.relItem = calq.NewItem(ts)
	span := cfg.Task.Period
	if cfg.Server != nil && cfg.Server.Period > span {
		span = cfg.Server.Period
	}
	span = min(span, calq.DefaultSpanCap)
	s.relWheel.EnsureSpan(span)
	s.relWheel.Reserve(len(s.tasks))
	s.ready.EnsureSpan(span)
	s.relWheel.Add(ts.relItem, ts.nextRelease)
	s.relStale = true
	return nil
}

// insertRank places a new live task in name order and renumbers the
// ranks from its position on. Ranks of the tasks already queued keep
// their relative order, so the ready queue stays valid. Cold path.
func (s *Simulator) insertRank(ts *tstate) {
	name := ts.cfg.Task.Name
	i := sort.Search(len(s.byName), func(k int) bool { return s.byName[k].cfg.Task.Name > name })
	s.byName = append(s.byName, nil)
	copy(s.byName[i+1:], s.byName[i:])
	s.byName[i] = ts
	s.renumber(i)
	for len(s.relBits)<<6 < len(s.byName) {
		s.relBits = append(s.relBits, 0)
	}
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

// Schedulable reports whether a set of (well-behaved, unserved) implicit-
// deadline periodic tasks is schedulable under uniprocessor EDF: the exact
// Liu & Layland condition Σ e/p ≤ 1.
func Schedulable(set task.Set) bool {
	return set.Feasible(1)
}

// Stats returns the counters accumulated so far.
func (s *Simulator) Stats() Stats { return s.stats }

// Now returns the current simulation time.
func (s *Simulator) Now() int64 { return s.now }

// Run advances the simulation to the horizon. Jobs still incomplete at the
// horizon with deadlines at or before it are recorded as misses. A
// non-nil error (*engine.LivelockError) means the policy stopped
// advancing time — the CBS zero-budget re-invocation path makes this
// simulator a genuine livelock candidate — and the horizon accounting is
// skipped because the run never reached it.
func (s *Simulator) Run(horizon int64) error {
	if err := s.eng.Run(horizon); err != nil {
		return err
	}
	s.atHorizon(horizon)
	s.finishMisses(horizon)
	return nil
}

// pendingEvent returns the absolute time of the running job's next event —
// completion or CBS budget exhaustion — or MaxInt64 when idle.
//
//pfair:hotpath
func (s *Simulator) pendingEvent() (event int64, exhaust bool) {
	event = math.MaxInt64
	if s.running != nil {
		runLen := s.running.remaining
		if srv := s.running.ts.cfg.Server; srv != nil && s.running.ts.budget < runLen {
			runLen = s.running.ts.budget
			exhaust = true
		}
		event = s.now + runLen
	}
	return event, exhaust
}

// Release is the engine release phase at event instant t: execute the
// running job up to t, process a completion or budget exhaustion landing
// exactly at t, then release every job due.
//
//pfair:hotpath
func (s *Simulator) Release(t int64) {
	event, exhaust := s.pendingEvent()
	s.advance(t)
	if event == t {
		if exhaust {
			s.exhaustBudget()
		} else {
			s.complete()
		}
	}
	s.releaseDue()
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

// Account implements engine.Policy; accounting happens inside the event
// handlers.
//
//pfair:hotpath
func (s *Simulator) Account(t int64) {}

// Next returns the next event instant: the earliest pending release or
// running-job event. It may equal t (a zero-budget head job exhausts
// immediately); the engine permits the zero-length step.
//
//pfair:hotpath
func (s *Simulator) Next(t int64) int64 {
	event, _ := s.pendingEvent()
	if nextRel := s.nextRelease(); nextRel < event {
		return nextRel
	}
	return event
}

// nextRelease returns the earliest armed release, or MaxInt64 when no
// timer is armed, probing the wheel only when relStale says it changed
// since the last probe.
//
//pfair:hotpath
func (s *Simulator) nextRelease() int64 {
	if s.relStale {
		s.relStale = false
		s.nextRel = math.MaxInt64
		if nr, ok := s.relWheel.NextOccupied(s.now); ok {
			s.nextRel = nr
		}
	}
	return s.nextRel
}

// atHorizon closes out a Run: the running job executes up to the horizon,
// and a completion or exhaustion landing exactly on it is still processed
// (followed by one dispatch) — but releases at the horizon fall outside
// the simulated window [0, horizon).
func (s *Simulator) atHorizon(horizon int64) {
	if s.now >= horizon {
		return
	}
	event, exhaust := s.pendingEvent()
	s.advance(horizon)
	if event == horizon {
		if exhaust {
			s.exhaustBudget()
		} else {
			s.complete()
		}
		s.dispatch()
	}
}

// advance moves time forward, executing the running job.
//
//pfair:hotpath
func (s *Simulator) advance(to int64) {
	if s.running != nil {
		delta := to - s.now
		s.running.remaining -= delta
		s.running.ts.executed += delta
		if s.running.ts.cfg.Server != nil {
			s.running.ts.budget -= delta
		}
	}
	s.now = to
}

// releaseDue releases every job whose time has come and re-arms the
// release timers. It drains the single due bucket and releases the batch
// in rank order, i.e. name order, without a comparison: each drained
// task's rank is marked in relBits, and the marked words are walked low
// to high, each set bit mapping back to its task through byName, and
// cleared as they are walked. Every drained timer shares the instant
// s.now and ranks are unique among the live tasks, so this is the order
// a sort by (release, name) gives. Releasing a job changes no rank.
//
//pfair:hotpath
func (s *Simulator) releaseDue() {
	due := s.relWheel.Due(s.now)
	if len(due) == 0 {
		return
	}
	s.relStale = true
	set := s.relBits
	lo, hi := len(set), -1
	for _, ts := range due {
		w := ts.rank >> 6
		set[w] |= 1 << uint(ts.rank&63)
		lo, hi = min(lo, w), max(hi, w)
	}
	for w := lo; w <= hi; w++ {
		word := set[w]
		set[w] = 0
		for word != 0 {
			ts := s.byName[w<<6|bits.TrailingZeros64(word)]
			word &= word - 1
			s.releaseOne(ts)
		}
	}
}

// releaseOne releases the job due from one task (its timer already
// dequeued), re-arms the timer, and routes the job into the ready queue
// directly or through the task's server.
//
//pfair:hotpath
func (s *Simulator) releaseOne(ts *tstate) {
	cost := ts.cfg.Task.Cost
	if ts.cfg.ActualCost != nil {
		cost = ts.cfg.ActualCost(ts.nextJob)
		if cost <= 0 {
			cost = 1
		}
	}
	orig := ts.nextRelease + ts.cfg.Task.Period
	var j *job
	if n := len(s.free); n > 0 {
		j = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		j = newJob()
	}
	j.ts = ts
	j.index = ts.nextJob
	j.key = orig
	if s.rm {
		j.key = ts.cfg.Task.Period
	}
	j.orig = orig
	j.remaining = cost
	j.missed = false
	s.stats.Jobs++
	if rec := s.rec; rec != nil {
		rec.Emit(obs.Event{Slot: s.now, Kind: obs.EvRelease, Task: ts.obsID, Proc: -1, A: j.index, B: j.orig})
	}
	ts.nextJob++
	ts.nextRelease += ts.cfg.Task.Period
	s.relWheel.Add(ts.relItem, ts.nextRelease)

	if srv := ts.cfg.Server; srv != nil {
		if ts.head != nil {
			// Server busy: queue behind the head, FIFO.
			ts.backlog = append(ts.backlog, j)
			return
		}
		// Server idle: if the leftover budget, consumed at the
		// server bandwidth from now, would overrun the current
		// server deadline (c_s ≥ (d_s − r)·Q/P), start a fresh
		// period; otherwise reuse the current deadline and budget.
		if ts.budget*srv.Period >= (ts.srvDeadline-s.now)*srv.Budget {
			ts.srvDeadline = s.now + srv.Period
			ts.budget = srv.Budget
		}
		j.key = ts.srvDeadline
		ts.head = j
	}
	s.ready.Add(&j.entry, j.key)
}

// newJob allocates a job record, its ready-queue entry included.
//
//pfair:allowalloc pool miss only: jobs are recycled through the free list, so allocations are bounded by the peak number of jobs alive at once
func newJob() *job {
	j := &job{}
	j.entry.Value = j
	return j
}

// freeJob returns a retired or cancelled job to the pool.
//
//pfair:hotpath
func (s *Simulator) freeJob(j *job) {
	j.ts = nil
	s.free = append(s.free, j)
}

// complete retires the running job and, for served tasks, promotes the
// next backlog job to server head.
//
//pfair:hotpath
func (s *Simulator) complete() {
	j := s.running
	s.running = nil
	s.stats.Completed++
	if s.now > j.orig && !j.missed {
		j.missed = true
		s.stats.Misses = append(s.stats.Misses, Miss{
			Task: j.ts.cfg.Task.Name, Job: j.index, Deadline: j.orig, FinishedAt: s.now,
		})
		if rec := s.rec; rec != nil {
			rec.Emit(obs.Event{Slot: s.now, Kind: obs.EvMiss, Task: j.ts.obsID, Proc: 0, A: j.index, B: j.orig})
		}
	}
	ts := j.ts
	s.freeJob(j)
	if ts.cfg.Server != nil {
		ts.head = nil
		if n := len(ts.backlog); n > 0 {
			next := ts.backlog[0]
			copy(ts.backlog, ts.backlog[1:])
			ts.backlog[n-1] = nil
			ts.backlog = ts.backlog[:n-1]
			next.key = ts.srvDeadline
			ts.head = next
			s.ready.Add(&next.entry, next.key)
		}
	}
}

// exhaustBudget applies the CBS rule to the running (head) job: replenish
// the budget and postpone the server deadline by the server period. The
// job keeps the processor unless a ready job now beats its demoted
// deadline.
//
//pfair:hotpath
func (s *Simulator) exhaustBudget() {
	j := s.running
	srv := j.ts.cfg.Server
	j.ts.budget = srv.Budget
	j.ts.srvDeadline += srv.Period
	j.key = j.ts.srvDeadline
	s.stats.Postponements++
}

// dispatch is the scheduler invocation: ensure the processor runs the
// highest-priority job among the running and ready ones. The test is the
// same under both rules: a task's running job always has the lowest
// index among its live jobs, so jobLess preempts exactly on a smaller
// key or, at an equal key, a smaller rank.
//
//pfair:hotpath
func (s *Simulator) dispatch() {
	var start time.Time
	if s.measure {
		start = time.Now() //pfair:allowtime overhead measurement, gated behind the measure flag
	}
	s.stats.Invocations++
	if s.running == nil {
		// Idle: the ready minimum takes the processor, one queue probe.
		if s.ready.Len() > 0 {
			top := s.ready.PopMin()
			s.running = top
			s.stats.ContextSwitches++
			if rec := s.rec; rec != nil {
				rec.Emit(obs.Event{Slot: s.now, Kind: obs.EvSchedule, Task: top.ts.obsID, Proc: 0, A: top.index})
			}
		}
	} else if top, _, ok := s.ready.PeekMin(); ok && jobLess(top, s.running) {
		s.ready.PopMin()
		s.ready.Add(&s.running.entry, s.running.key)
		s.stats.Preemptions++
		s.stats.ContextSwitches++
		if rec := s.rec; rec != nil {
			rec.Emit(obs.Event{Slot: s.now, Kind: obs.EvPreempt, Task: s.running.ts.obsID, Proc: 0, A: s.running.index})
			rec.Emit(obs.Event{Slot: s.now, Kind: obs.EvSchedule, Task: top.ts.obsID, Proc: 0, A: top.index})
		}
		s.running = top
	}
	if s.measure {
		s.stats.SchedulingTime += time.Since(start) //pfair:allowtime overhead measurement, gated behind the measure flag
	}
}

// finishMisses records jobs still incomplete at the horizon whose own
// deadlines fell at or before it: the running job, the ready jobs in
// priority order, then each server backlog in name order, so the recorded
// miss sequence is a pure function of the workload.
func (s *Simulator) finishMisses(horizon int64) {
	record := func(j *job) {
		if j != nil && !j.missed && j.orig <= horizon {
			j.missed = true
			s.stats.Misses = append(s.stats.Misses, Miss{
				Task: j.ts.cfg.Task.Name, Job: j.index, Deadline: j.orig, FinishedAt: -1,
			})
			if rec := s.rec; rec != nil {
				rec.Emit(obs.Event{Slot: horizon, Kind: obs.EvMiss, Task: j.ts.obsID, Proc: 0, A: j.index, B: j.orig})
			}
		}
	}
	record(s.running)
	s.ready.Retain(func(j *job) bool {
		record(j)
		return true
	})
	for _, ts := range s.byName {
		for _, j := range ts.backlog {
			record(j)
		}
	}
}
