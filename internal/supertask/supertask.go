// Package supertask implements the supertasking approach of Section 5.5
// (after Moir and Ramamurthy [29]): a set of component tasks is bound to a
// single processor and represented in the Pfair scheduler by one supertask
// competing with their cumulative weight. Whenever the supertask receives a
// quantum, an internal scheduler — EDF here, as in the Holman–Anderson
// analysis [16] — picks which component runs.
//
// Supertasking combines the benefits of Pfair scheduling and partitioning
// (both are special cases), but it is not safe as-is: component deadlines
// can be missed even though the supertask receives its full entitlement,
// because the entitlement may arrive at the wrong instants. Figure 5's
// two-processor counterexample is reproduced in the tests. Holman and
// Anderson showed that inflating the supertask's weight by 1/p_min, where
// p_min is the smallest component period, restores the guarantee; the
// Reweighted mode applies exactly that inflation.
package supertask

import (
	"fmt"
	"sort"

	"pfair/internal/core"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// Supertask is a named bundle of component tasks bound to one processor.
type Supertask struct {
	Name       string
	Components task.Set
}

// Weight returns the cumulative component weight. An error is returned if
// the exact sum does not fit in an int64 rational (component sets are
// small, so this is unexpected) or exceeds one.
func (s *Supertask) Weight() (rational.Rat, error) {
	return accWeight(s.Components.TotalWeight(), s.Name)
}

// ReweightedWeight returns the Holman–Anderson inflated weight: cumulative
// weight + 1/p_min. For EDF-internal supertasks this inflation is
// sufficient to guarantee all component deadlines [16].
func (s *Supertask) ReweightedWeight() (rational.Rat, error) {
	if len(s.Components) == 0 {
		return rational.Zero(), fmt.Errorf("supertask %s: no components", s.Name)
	}
	pmin := s.Components[0].Period
	for _, c := range s.Components[1:] {
		if c.Period < pmin {
			pmin = c.Period
		}
	}
	return accWeight(s.Components.TotalWeight().AddFrac(1, pmin), s.Name)
}

func accWeight(acc *rational.Acc, name string) (rational.Rat, error) {
	w, ok := acc.Rat()
	if !ok {
		return rational.Zero(), fmt.Errorf("supertask %s: weight does not reduce to an int64 rational", name)
	}
	if rational.One().Less(w) {
		return rational.Zero(), fmt.Errorf("supertask %s: cumulative weight %v exceeds one processor", name, w)
	}
	if w.Sign() <= 0 {
		return rational.Zero(), fmt.Errorf("supertask %s: empty weight", name)
	}
	return w, nil
}

// ComponentMiss records a component job that was not complete by its
// deadline.
type ComponentMiss struct {
	Supertask string
	Component string
	Job       int64
	Deadline  int64
}

// Result aggregates a System run.
type Result struct {
	// Scheduler carries the global PD² counters (global misses here mean
	// the supertask itself missed a window, which PD² never does while
	// Equation (2) holds).
	Scheduler core.Stats
	// ComponentMisses lists component-level deadline violations — the
	// failure mode supertasking introduces.
	ComponentMisses []ComponentMiss
	// Served counts quanta delivered to each supertask, by name: a
	// supertask that rejoined after leaving sums both stays.
	Served map[string]int64
	// Wasted counts supertask quanta that arrived when no component had
	// released, unfinished work, by name as Served does.
	Wasted map[string]int64
}

type compState struct {
	t     *task.Task
	obsID int32 // dense trace id from the scheduler's allocator; −1 until registered
	// off is the slot the component's periodic lattice starts at: 0 for
	// supertasks added before the run (the historical synchronous case),
	// the admission slot for supertasks joining mid-run.
	off       int64
	completed int64 // fully finished jobs
	rem       int64 // remaining quanta of the head job (completed+1)
	// lastMissedJob is the highest job index already recorded as missed;
	// head-job indices are monotone, so one int replaces a per-job map.
	lastMissedJob int64
}

//pfair:hotpath
func (c *compState) headJob() int64 { return c.completed + 1 }

//pfair:hotpath
func (c *compState) headRelease() int64 { return c.off + c.completed*c.t.Period }

//pfair:hotpath
func (c *compState) headDeadline() int64 { return c.off + (c.completed+1)*c.t.Period }

//pfair:hotpath
func (c *compState) released(t int64) bool { return c.headRelease() <= t }

type sstate struct {
	st    *Supertask
	comps []*compState
	// leaveAt is the slot the supertask's departure takes effect, or −1
	// while no leave is pending. From that slot on, afterSlot stops
	// charging component deadline misses: the bundle departed with its
	// supertask.
	leaveAt int64
	// served and wasted are the counts Run reports in Result.
	served, wasted int64
}

// System couples a global PD² (or other Pfair) scheduler with supertask
// internal scheduling. It rides the scheduler's engine: the per-slot
// supertask work (serving components, checking component deadlines) runs
// in the scheduler's OnSlot callback, so System.Run is just the engine
// loop.
type System struct {
	sched   *core.Scheduler
	ordered []*sstate // sorted by supertask name, then join order; maintained on insert
	// byID maps each scheduler task id seen so far to the supertask it
	// represents, nil for an ordinary task. A reweight's new incarnation
	// is a new id mapped to the same bundle.
	byID []*sstate
	res  Result
	// rec is cached from the engine; nil when unobserved. Component-level
	// events (join/schedule/miss) are emitted alongside the scheduler's
	// own, with ids drawn from the same dense allocator.
	rec *obs.Recorder
}

// NewSystem returns a system on m processors under the given Pfair
// algorithm. Engine options attach observability; with a recorder, the
// trace carries both the supertasks' Pfair events and component-level
// schedule/miss events (component ids are registered as "super/comp").
func NewSystem(m int, alg core.Algorithm, opts ...engine.Option) *System {
	sys := &System{sched: core.NewScheduler(m, alg, core.Options{}, opts...)}
	sys.rec = sys.sched.Engine().Recorder()
	sys.sched.OnSlot(sys.afterSlot)
	return sys
}

// Name returns the name of the scheduler task with the given id, as a
// Result.Scheduler miss carries it.
func (sys *System) Name(id int) string { return sys.sched.Name(id) }

// lookup returns the newest supertask with the given name, or nil.
// Bundles that share a name, each joined after the last one left, sit
// in ordered in join order.
func (sys *System) lookup(name string) *sstate {
	i := sort.Search(len(sys.ordered), func(i int) bool { return sys.ordered[i].st.Name > name })
	if i > 0 && sys.ordered[i-1].st.Name == name {
		return sys.ordered[i-1]
	}
	return nil
}

// live returns the supertask named name if it is in the system at slot
// t: added, and not departed by t.
func (sys *System) live(name string, t int64) *sstate {
	ss := sys.lookup(name)
	if ss == nil || (ss.leaveAt >= 0 && t >= ss.leaveAt) {
		return nil
	}
	return ss
}

// resolve extends byID through id at slot t, mapping each new scheduler
// id to the supertask of the same name while that supertask is live.
// Names are unique among present tasks, so an id scheduled at t whose
// name matches a supertask live at t is that supertask's representative,
// and one scheduled after the supertask departed is an ordinary task
// that reuses the name. A lower id filled in on the way can be mapped
// wrongly only if it is never scheduled again: a departed incarnation,
// or a departed ordinary task whose name a later supertask took.
func (sys *System) resolve(id int, t int64) {
	for k := len(sys.byID); k <= id; k++ {
		sys.byID = append(sys.byID, sys.live(sys.sched.Name(k), t))
	}
}

// registerComponents assigns trace ids to ss's components and announces
// them to the recorder. Ids come from the scheduler's dense allocator, so
// they never collide with task ids — even for tasks joining later.
func (sys *System) registerComponents(ss *sstate) {
	rec := sys.rec
	if rec == nil {
		return
	}
	for _, c := range ss.comps {
		if c.obsID < 0 {
			c.obsID = sys.sched.AllocObsID()
		}
		if rec.RegisterTask(c.obsID, ss.st.Name+"/"+c.t.Name) {
			rec.Emit(obs.Event{Slot: sys.sched.Now(), Kind: obs.EvJoin, Task: c.obsID, Proc: -1, A: c.t.Cost, B: c.t.Period})
		}
	}
}

// Run simulates the system for the given number of slots and returns the
// accumulated result. It may be called repeatedly to extend a run.
func (sys *System) Run(horizon int64) Result {
	if err := sys.sched.RunUntil(horizon); err != nil {
		//pfair:allowpanic livelock is a policy contract violation; Result has no error channel, and silence would report a clean run that never happened
		panic(err)
	}
	sys.res.Scheduler = sys.sched.Stats()
	sys.res.Served, sys.res.Wasted = map[string]int64{}, map[string]int64{}
	for _, ss := range sys.ordered {
		if ss.served > 0 {
			sys.res.Served[ss.st.Name] += ss.served
		}
		if ss.wasted > 0 {
			sys.res.Wasted[ss.st.Name] += ss.wasted
		}
	}
	return sys.res
}

// afterSlot is the scheduler's OnSlot callback: serve each scheduled
// supertask's quantum to its internal EDF scheduler, then check component
// deadlines, which pass at the end of the slot. Supertasks are visited in
// sorted-name order (maintained on insert) so the ComponentMisses
// sequence is a pure function of the workload.
//
//pfair:hotpath
func (sys *System) afterSlot(t int64, assigned []core.Assignment) {
	for _, a := range assigned {
		if a.Task >= len(sys.byID) {
			//pfair:coldcall runs once per task id, in the first slot that id is scheduled
			sys.resolve(a.Task, t)
		}
		if ss := sys.byID[a.Task]; ss != nil {
			ss.served++
			sys.serve(ss, t, int32(a.Proc))
		}
	}
	for _, ss := range sys.ordered {
		if ss.leaveAt >= 0 && t >= ss.leaveAt {
			continue
		}
		for _, c := range ss.comps {
			if c.rem > 0 && c.headDeadline() <= t+1 && c.headJob() > c.lastMissedJob {
				c.lastMissedJob = c.headJob()
				sys.res.ComponentMisses = append(sys.res.ComponentMisses, ComponentMiss{
					Supertask: ss.st.Name, Component: c.t.Name,
					Job: c.headJob(), Deadline: c.headDeadline(),
				})
				if rec := sys.rec; rec != nil {
					rec.Emit(obs.Event{Slot: t, Kind: obs.EvMiss, Task: c.obsID, Proc: -1, A: c.headJob(), B: c.headDeadline()})
				}
			}
		}
	}
}

// serve delivers one quantum to the supertask's internal EDF scheduler:
// among components with a released, unfinished head job, the earliest head
// deadline (ties by name) runs, on the processor the supertask's quantum
// arrived on.
//
//pfair:hotpath
func (sys *System) serve(ss *sstate, t int64, proc int32) {
	var pick *compState
	for _, c := range ss.comps {
		if c.rem <= 0 || !c.released(t) {
			continue
		}
		if pick == nil || c.headDeadline() < pick.headDeadline() ||
			(c.headDeadline() == pick.headDeadline() && c.t.Name < pick.t.Name) {
			pick = c
		}
	}
	if pick == nil {
		ss.wasted++
		return
	}
	if rec := sys.rec; rec != nil {
		rec.Emit(obs.Event{Slot: t, Kind: obs.EvSchedule, Task: pick.obsID, Proc: proc, A: pick.headJob()})
	}
	pick.rem--
	if pick.rem == 0 {
		pick.completed++
		pick.rem = pick.t.Cost
	}
}
