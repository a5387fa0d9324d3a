// Package sim provides multiprocessor scheduling simulators that sit
// outside the Pfair framework of internal/core: slot-based global EDF and
// global RM (to reproduce the Dhall effect the paper cites as the reason
// naive global scheduling was abandoned), and the variable-length-quantum
// Pfair variant whose deadline misses Section 4 poses as an open problem.
package sim

import (
	"fmt"
	"math"

	"pfair/internal/calq"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// Policy selects the global job-level priority rule.
type Policy int

const (
	// GlobalEDF prioritizes jobs by absolute deadline. Dhall and Liu
	// showed it can miss deadlines at arbitrarily low utilization on
	// multiprocessors [13].
	GlobalEDF Policy = iota
	// GlobalRM prioritizes jobs by their task's period (fixed priority),
	// with the same pathology.
	GlobalRM
)

func (p Policy) String() string {
	switch p {
	case GlobalEDF:
		return "global-EDF"
	case GlobalRM:
		return "global-RM"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// JobMiss records a job that did not complete by its deadline.
type JobMiss struct {
	Task     string
	Job      int64
	Deadline int64
}

// GlobalStats aggregates a global-scheduling run.
type GlobalStats struct {
	Jobs      int64
	Completed int64
	Misses    []JobMiss
}

type gtask struct {
	t           *task.Task
	id          int32 // dense observability id (index in the input set)
	nextRelease int64
	nextJob     int64
	// Outstanding jobs, FIFO; only the head is schedulable (a task
	// cannot run in parallel with itself).
	queue []*gjob
}

type gjob struct {
	ts        *gtask
	index     int64
	deadline  int64
	key       int64 // ready-queue key: the deadline under EDF, the task's period under RM
	remaining int64
	missed    bool
	// entry is the job's ready-queue handle, embedded so it is allocated
	// with the job: re-queueing a preempted or advancing job never
	// allocates.
	entry calq.Entry[*gjob]
}

// globalSim is the engine.Policy behind RunGlobal: slot-quantized global
// EDF/RM. Selection scratch (ranBuf) is preallocated per simulation and
// jobs embed their queue entry, so the steady-state slot loop stays
// allocation-free; only job releases (one job record each) allocate.
type globalSim struct {
	m     int
	rm    bool
	tasks []*gtask
	// ready holds the heads of task queues with remaining work, by key,
	// ties by (name, job index).
	ready *calq.MinQueue[*gjob]
	// rec is cached from the engine at construction; nil = unobserved.
	rec    *obs.Recorder
	ranBuf []*gjob
	stats  GlobalStats
}

// gjobLess breaks ties between jobs of equal key: by task name, then job
// index. With the key first this is the (key, name, index) total order.
//
//pfair:hotpath
func gjobLess(a, b *gjob) bool {
	if a.ts.t.Name != b.ts.t.Name {
		return a.ts.t.Name < b.ts.t.Name
	}
	return a.index < b.index
}

func newGlobalSim(set task.Set, m int, pol Policy) *globalSim {
	g := &globalSim{
		m:      m,
		rm:     pol == GlobalRM,
		tasks:  make([]*gtask, len(set)),
		ranBuf: make([]*gjob, 0, m),
	}
	// Live keys (deadlines, or periods under RM) span at most the longest
	// period; keys outside the span cost an exact scan, never correctness.
	var span int64
	for i, t := range set {
		g.tasks[i] = &gtask{t: t, id: int32(i), nextJob: 1}
		span = max(span, t.Period)
	}
	g.ready = calq.NewMinQueue(min(span, calq.DefaultSpanCap), gjobLess)
	return g
}

// register announces the task set to the recorder; called once after the
// policy is bound to its engine.
func (g *globalSim) register(rec *obs.Recorder) {
	g.rec = rec
	if rec == nil {
		return
	}
	for _, ts := range g.tasks {
		rec.RegisterTask(ts.id, ts.t.Name)
		rec.Emit(obs.Event{Slot: 0, Kind: obs.EvJoin, Task: ts.id, Proc: -1, A: ts.t.Cost, B: ts.t.Period})
	}
}

// Release brings the slot current: releases jobs due at t, then records
// misses for queued jobs whose deadlines have passed.
//
// Not //pfair:hotpath: releasing a job inherently allocates (the job
// record, its queue entry embedded). The between-releases slot path is
// pinned at 0 allocs/op dynamically by TestGlobalStepSteadyStateZeroAllocs.
//
//pfair:allowalloc releasing a job allocates one job record per period, off the per-slot path
func (g *globalSim) Release(t int64) {
	for _, ts := range g.tasks {
		for ts.nextRelease <= t {
			j := &gjob{
				ts:        ts,
				index:     ts.nextJob,
				deadline:  ts.nextRelease + ts.t.Period,
				remaining: ts.t.Cost,
			}
			j.key = j.deadline
			if g.rm {
				j.key = ts.t.Period
			}
			j.entry.Value = j
			g.stats.Jobs++
			if rec := g.rec; rec != nil {
				rec.Emit(obs.Event{Slot: t, Kind: obs.EvRelease, Task: ts.id, Proc: -1, A: j.index, B: j.deadline})
			}
			if len(ts.queue) == 0 {
				g.ready.Add(&j.entry, j.key)
			}
			ts.queue = append(ts.queue, j)
			ts.nextJob++
			ts.nextRelease += ts.t.Period
		}
	}
	for _, ts := range g.tasks {
		for _, j := range ts.queue {
			if !j.missed && j.deadline <= t {
				j.missed = true
				g.stats.Misses = append(g.stats.Misses, JobMiss{Task: ts.t.Name, Job: j.index, Deadline: j.deadline})
				if rec := g.rec; rec != nil {
					rec.Emit(obs.Event{Slot: t, Kind: obs.EvMiss, Task: ts.id, Proc: -1, A: j.index, B: j.deadline})
				}
			}
		}
	}
}

// Pick pops the m highest-priority queue heads into the selection scratch.
//
//pfair:hotpath
func (g *globalSim) Pick(t int64) {
	ran := g.ranBuf[:0]
	for len(ran) < g.m && g.ready.Len() > 0 {
		ran = append(ran, g.ready.PopMin())
	}
	g.ranBuf = ran
}

// Dispatch runs the selection for one slot: emits schedule/idle events and
// applies execution effects (completion, queue advance, requeue).
//
//pfair:hotpath
func (g *globalSim) Dispatch(t int64) {
	ran := g.ranBuf
	if rec := g.rec; rec != nil {
		for k, j := range ran {
			rec.Emit(obs.Event{Slot: t, Kind: obs.EvSchedule, Task: j.ts.id, Proc: int32(k), A: j.index})
		}
		for k := len(ran); k < g.m; k++ {
			rec.Emit(obs.Event{Slot: t, Kind: obs.EvIdle, Task: -1, Proc: int32(k)})
		}
	}
	for _, j := range ran {
		j.remaining--
		if j.remaining == 0 {
			g.stats.Completed++
			ts := j.ts
			ts.queue = ts.queue[1:]
			if len(ts.queue) > 0 {
				next := ts.queue[0]
				g.ready.Add(&next.entry, next.key)
			}
		} else {
			g.ready.Add(&j.entry, j.key)
		}
	}
}

// Account implements engine.Policy; global EDF/RM keeps no per-slot gauges.
//
//pfair:hotpath
func (g *globalSim) Account(t int64) {}

// Next implements engine.Policy: the simulation is slot-driven.
//
//pfair:hotpath
func (g *globalSim) Next(t int64) int64 { return t + 1 }

// Finish implements engine.Finisher: jobs still pending with expired
// deadlines at the horizon are recorded as misses.
func (g *globalSim) Finish(horizon int64) {
	for _, ts := range g.tasks {
		for _, j := range ts.queue {
			if !j.missed && j.deadline <= horizon {
				j.missed = true
				g.stats.Misses = append(g.stats.Misses, JobMiss{Task: ts.t.Name, Job: j.index, Deadline: j.deadline})
				if rec := g.rec; rec != nil {
					rec.Emit(obs.Event{Slot: horizon, Kind: obs.EvMiss, Task: ts.id, Proc: -1, A: j.index, B: j.deadline})
				}
			}
		}
	}
}

// RunGlobal simulates synchronous periodic tasks on m processors under
// slot-quantized global EDF or RM: each slot, the m highest-priority
// eligible jobs run (at most one slot of one job per task per slot). It
// records every job-deadline miss up to the horizon.
//
// Engine options attach observability: engine.WithRecorder(rec) makes the
// run emit release, schedule, idle, and deadline-miss events, so the
// Dhall-effect runs export to the same Perfetto timeline as the Pfair
// schedulers. Task ids are the indices into set. (This replaces the former
// RunGlobalObserved twin.)
//
//pfair:keep §1 Dhall claim: TestDhallEffect runs global EDF and RM through it (DESIGN.md §3)
func RunGlobal(set task.Set, m int, pol Policy, horizon int64, opts ...engine.Option) GlobalStats {
	g := newGlobalSim(set, m, pol)
	eng := engine.New(g, opts...)
	g.register(eng.Recorder())
	if err := eng.Run(horizon); err != nil {
		//pfair:allowpanic livelock is a policy contract violation; this one-shot harness has no error channel, and silence would report a clean run that never happened
		panic(err)
	}
	eng.Finish(horizon)
	return g.stats
}

// DhallSet constructs the classic Dhall-effect workload for m processors:
// m light tasks of utilization 1/light and one heavy task of utilization
// just under one. Its total utilization is ≈ m/light + 1, far below m, yet
// global EDF and RM both miss the heavy task's deadlines.
//
//pfair:keep §1 Dhall claim: the M light + 1 heavy task set TestDhallEffect schedules (DESIGN.md §3)
func DhallSet(m int, light int64) task.Set {
	set := make(task.Set, 0, m+1)
	for i := 0; i < m; i++ {
		set = append(set, task.MustNew(fmt.Sprintf("light%d", i), 1, light))
	}
	// Heavy task: cost = 10·light, period = 10·light + 1.
	set = append(set, task.MustNew("heavy", 10*light, 10*light+1))
	return set
}

// MaxLateness returns the largest completion lateness implied by the
// misses (for reporting; unfinished jobs count as at least one slot late).
//
//pfair:keep §1 Dhall claim: the lateness TestDhallEffect reports (DESIGN.md §3)
func (g GlobalStats) MaxLateness(horizon int64) int64 {
	max := int64(math.MinInt64)
	if len(g.Misses) == 0 {
		return 0
	}
	for _, m := range g.Misses {
		l := horizon - m.Deadline
		if l > max {
			max = l
		}
	}
	if max < 1 {
		max = 1
	}
	return max
}
