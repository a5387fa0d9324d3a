package sim

import (
	"math"
	"sort"

	"pfair/internal/core"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// This file studies the open problem Section 4 closes with: Pfair
// optimality requires execution costs to be multiples of the quantum, so
// sub-quantum work must be padded. "A more flexible approach is to allow a
// new quantum to begin immediately on a processor if a task completes
// execution on that processor before the next quantum boundary. However,
// with this change, quanta vary in length and may no longer align across
// all processors. It is easy to show that allowing such variable-length
// quanta can result in missed deadlines."
//
// RunQuanta simulates both policies on a fine-grained clock: Aligned pads
// every early completion to the next global quantum boundary (the standard
// Pfair model — never misses when Σ declared weight ≤ M), while Variable
// starts the processor's next quantum immediately, letting boundaries
// drift. Tests exhibit a feasible set that misses only under Variable.

// QuantumMode selects the padding policy.
type QuantumMode int

const (
	// Aligned pads early completions to the next global boundary.
	Aligned QuantumMode = iota
	// Variable begins the next quantum immediately on early completion.
	Variable
)

func (m QuantumMode) String() string {
	if m == Aligned {
		return "aligned"
	}
	return "variable"
}

// VQTask pairs a declared Pfair task (cost and period in quanta) with its
// actual per-job demand in ticks (1 quantum = Quantum ticks). ActualTicks
// nil means every job consumes its full declared cost.
type VQTask struct {
	Task *task.Task
	// ActualTicks returns the true execution demand of the 1-based job
	// index, in ticks; it must be in [1, Cost·Quantum].
	ActualTicks func(job int64) int64
}

// VQResult reports job-level deadline behaviour.
type VQResult struct {
	Completed int64
	Misses    []JobMiss // Deadline in ticks
}

type vqState struct {
	t       *task.Task
	pat     *core.Pattern
	actual  func(job int64) int64
	id      int
	idx     int64 // current subtask (1-based)
	job     int64 // current job (1-based)
	jobRem  int64 // remaining actual ticks of the current job
	running bool
	q       int64
}

// eligibleAt returns the earliest tick the current subtask may start.
//
//pfair:hotpath
func (s *vqState) eligibleAt() int64 {
	return s.pat.Release(s.idx) * s.q
}

//pfair:hotpath
func (s *vqState) deadlineTicks() int64 {
	return s.job * s.t.Period * s.q
}

// startJob initializes job j's demand.
//
//pfair:hotpath
func (s *vqState) startJob(j int64) {
	s.job = j
	s.idx = (j-1)*s.t.Cost + 1
	rem := s.t.Cost * s.q
	if s.actual != nil {
		rem = s.actual(j)
		if rem < 1 {
			rem = 1
		}
		if max := s.t.Cost * s.q; rem > max {
			rem = max
		}
	}
	s.jobRem = rem
}

// vqSim is the engine.Policy behind RunQuanta. It is event-driven: Next
// skips to the earliest processor-free or eligibility event, and Release
// marks the instants on the global quantum lattice, to which Aligned-mode
// dispatch is gated.
type vqSim struct {
	m       int
	quantum int64
	mode    QuantumMode
	states  []*vqState
	// busyUntil[k] < 0 means processor k is idle; otherwise it frees at
	// that tick, running busyTask[k] until then.
	busyUntil []int64
	busyTask  []*vqState
	// rec is cached from the engine at construction; nil = unobserved.
	rec *obs.Recorder
	res VQResult
	// boundary is set by Release when the current instant is a multiple
	// of quantum, and read by Dispatch: Aligned mode may only start
	// quanta while it is set.
	boundary bool
}

func newVQSim(tasks []VQTask, m int, quantum int64, mode QuantumMode) *vqSim {
	v := &vqSim{
		m:         m,
		quantum:   quantum,
		mode:      mode,
		states:    make([]*vqState, len(tasks)),
		busyUntil: make([]int64, m),
		busyTask:  make([]*vqState, m),
	}
	for i, vt := range tasks {
		st := &vqState{
			t:      vt.Task,
			pat:    core.NewPattern(vt.Task.Cost, vt.Task.Period),
			actual: vt.ActualTicks,
			id:     i,
			q:      quantum,
		}
		st.startJob(1)
		v.states[i] = st
	}
	for k := range v.busyUntil {
		v.busyUntil[k] = -1
	}
	return v
}

func (v *vqSim) register(rec *obs.Recorder) {
	v.rec = rec
	if rec == nil {
		return
	}
	for _, st := range v.states {
		rec.RegisterTask(int32(st.id), st.t.Name)
		rec.Emit(obs.Event{Slot: 0, Kind: obs.EvJoin, Task: int32(st.id), Proc: -1, A: st.t.Cost, B: st.t.Period})
	}
}

// Release marks whether t lies on the global quantum lattice and
// retires runs completing at t, freeing their processors.
//
//pfair:hotpath
func (v *vqSim) Release(t int64) {
	v.boundary = v.quantum > 0 && t%v.quantum == 0
	for k := 0; k < v.m; k++ {
		if v.busyUntil[k] >= 0 && v.busyUntil[k] <= t {
			v.busyTask[k].running = false
			v.busyUntil[k] = -1
			v.busyTask[k] = nil
		}
	}
}

// Pick implements engine.Policy; selection is interleaved with placement
// in Dispatch (each start changes which subtask is highest-priority next).
//
//pfair:hotpath
func (v *vqSim) Pick(t int64) {}

// Dispatch hands idle processors to eligible subtasks: repeatedly give
// the highest-priority eligible subtask to the lowest-indexed idle
// processor. Under Aligned, quanta may only begin on global boundaries
// (see Release).
//
//pfair:hotpath
func (v *vqSim) Dispatch(t int64) {
	for v.mode == Variable || v.boundary {
		proc := -1
		for k := 0; k < v.m; k++ {
			if v.busyUntil[k] < 0 {
				proc = k
				break
			}
		}
		if proc < 0 {
			break
		}
		var best *vqState
		for _, st := range v.states {
			if st.running || st.eligibleAt() > t {
				continue
			}
			if best == nil || core.Less(core.PD2,
				core.SubtaskRef{Pat: st.pat, Index: st.idx, ID: st.id},
				core.SubtaskRef{Pat: best.pat, Index: best.idx, ID: best.id}) {
				best = st
			}
		}
		if best == nil {
			break
		}
		run := v.quantum
		if best.jobRem < run {
			run = best.jobRem
		}
		best.running = true
		if rec := v.rec; rec != nil {
			rec.Emit(obs.Event{Slot: t, Kind: obs.EvSchedule, Task: int32(best.id), Proc: int32(proc), A: best.idx, B: run})
		}
		// Apply the run's effects now; the processor-free event only
		// clears the reservation.
		best.jobRem -= run
		if best.jobRem == 0 {
			finish := t + run
			if finish > best.deadlineTicks() {
				v.res.Misses = append(v.res.Misses, JobMiss{Task: best.t.Name, Job: best.job, Deadline: best.deadlineTicks()})
				if rec := v.rec; rec != nil {
					rec.Emit(obs.Event{Slot: finish, Kind: obs.EvMiss, Task: int32(best.id), Proc: int32(proc), A: best.job, B: best.deadlineTicks()})
				}
			}
			v.res.Completed++
			best.startJob(best.job + 1)
		} else {
			best.idx++
		}
		v.busyUntil[proc] = t + run
		v.busyTask[proc] = best
	}
}

// Account implements engine.Policy; the quantum study keeps no gauges.
//
//pfair:hotpath
func (v *vqSim) Account(t int64) {}

// Next advances to the next event: a processor freeing, or a future
// eligibility arriving for an idle processor.
//
//pfair:hotpath
func (v *vqSim) Next(t int64) int64 {
	next := int64(math.MaxInt64)
	anyIdle := false
	for k := 0; k < v.m; k++ {
		if v.busyUntil[k] >= 0 {
			if v.busyUntil[k] < next {
				next = v.busyUntil[k]
			}
		} else {
			anyIdle = true
		}
	}
	if anyIdle {
		for _, st := range v.states {
			if st.running {
				continue
			}
			e := st.eligibleAt()
			if v.mode == Aligned {
				// Aligned starts happen on the lattice anyway.
				e = alignUp(e, v.quantum)
			}
			if e > t && e < next {
				next = e
			}
		}
		if v.mode == Aligned {
			// An idle aligned processor re-evaluates at the next
			// boundary (a mid-quantum completion elsewhere cannot
			// start work before it).
			b := alignUp(t+1, v.quantum)
			if b < next {
				next = b
			}
		}
	}
	if next <= t {
		next = t + 1
	}
	return next
}

// Finish implements engine.Finisher: pending jobs with expired deadlines
// at the horizon become misses, then misses sort deterministically.
func (v *vqSim) Finish(horizon int64) {
	for _, st := range v.states {
		if st.jobRem > 0 && st.deadlineTicks() <= horizon {
			v.res.Misses = append(v.res.Misses, JobMiss{Task: st.t.Name, Job: st.job, Deadline: st.deadlineTicks()})
			if rec := v.rec; rec != nil {
				rec.Emit(obs.Event{Slot: horizon, Kind: obs.EvMiss, Task: int32(st.id), Proc: -1, A: st.job, B: st.deadlineTicks()})
			}
		}
	}
	sort.Slice(v.res.Misses, func(i, j int) bool {
		if v.res.Misses[i].Deadline != v.res.Misses[j].Deadline {
			return v.res.Misses[i].Deadline < v.res.Misses[j].Deadline
		}
		return v.res.Misses[i].Task < v.res.Misses[j].Task
	})
}

// RunQuanta simulates the task set on m processors under PD² priorities
// with the given quantum size (in ticks) and padding mode, until the
// horizon (in ticks). Tasks are synchronous and periodic.
//
// Engine options attach observability: with engine.WithRecorder(rec),
// event Slot fields carry *ticks*, not quanta; exporters should scale
// SlotMicros accordingly. Schedule events carry the run length in ticks
// in B, making quantum drift under Variable mode directly visible on the
// timeline. Task ids are the indices into tasks. (This replaces the
// former RunQuantaObserved twin.)
//
//pfair:keep §4 open-problem claim: TestVariableQuantaMisses shows variable-length quanta miss deadlines (DESIGN.md §3)
func RunQuanta(tasks []VQTask, m int, quantum, horizon int64, mode QuantumMode, opts ...engine.Option) VQResult {
	v := newVQSim(tasks, m, quantum, mode)
	eng := engine.New(v, opts...)
	v.register(eng.Recorder())
	if err := eng.Run(horizon); err != nil {
		//pfair:allowpanic livelock is a policy contract violation; this one-shot harness has no error channel, and silence would report a clean run that never happened
		panic(err)
	}
	eng.Finish(horizon)
	return v.res
}

//pfair:hotpath
func alignUp(t, quantum int64) int64 {
	r := t % quantum
	if r == 0 {
		return t
	}
	return t + quantum - r
}
