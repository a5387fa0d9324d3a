package fuzz

import (
	"fmt"
	"sync"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/edf"
	"pfair/internal/partition"
	"pfair/internal/rm"
	"pfair/internal/task"
	"pfair/internal/verify"
)

// Outcome is the oracle's verdict on one case.
type Outcome struct {
	// Violations lists unexplained disagreements: a component broke a
	// property its counterpart (or the theory) guarantees. Empty means the
	// case passed.
	Violations []string
	// Explained counts expected disagreements — EPDF missing deadlines on
	// three or more processors, where it is known not to be optimal.
	Explained int
}

// CheckCase runs the case through its scheduler pairing and returns the
// verdict. mutant substitutes for PD² in the kinds that exercise PD²
// (full-utilization, dynamic, and IS schedules); pass core.PD2 — the zero
// value — for the honest scheduler, or a fault-injection variant such as
// core.PD2NoBBit to prove the oracle catches it.
func CheckCase(c Case, mutant core.Algorithm) Outcome {
	switch c.Kind {
	case KindFullUtil:
		return checkFullUtil(c, mutant)
	case KindEPDF:
		return checkEPDF(c)
	case KindEDF:
		return checkEDF(c)
	case KindRM:
		return checkRM(c)
	case KindPartition:
		return checkPartition(c)
	case KindDynamic:
		return checkDynamic(c, mutant)
	case KindIS:
		return checkIS(c, mutant)
	case KindDynPlane:
		return checkDynPlane(c, mutant)
	}
	return Outcome{Violations: []string{fmt.Sprintf("unknown kind %v", c.Kind)}}
}

// violations accumulates findings, folding long verify reports into a
// bounded summary.
type violations struct{ list []string }

func (v *violations) addf(format string, args ...any) {
	v.list = append(v.list, fmt.Sprintf(format, args...))
}

func (v *violations) addVerify(label string, errs []error) {
	const keep = 3
	for i, e := range errs {
		if i == keep {
			v.addf("%s: … and %d more verify errors", label, len(errs)-keep)
			break
		}
		v.addf("%s: %v", label, e)
	}
}

// missText formats a core miss the way %+v would if it carried its task's
// name rather than its id.
func missText(m core.Miss, name func(id int) string) string {
	return fmt.Sprintf("{Task:%s Subtask:%d Deadline:%d ScheduledAt:%d}", name(m.Task), m.Subtask, m.Deadline, m.ScheduledAt)
}

// recorders recycles trace storage across runs and cases, so recording
// a schedule allocates only when a run outgrows every earlier one. A
// recorder goes back to the pool only once nothing reads its Slots.
var recorders = sync.Pool{New: func() any { return new(verify.Recorder) }}

// getRecorder returns an empty recorder from the pool.
func getRecorder() *verify.Recorder {
	rec := recorders.Get().(*verify.Recorder)
	rec.Reset()
	return rec
}

// runPfair drives one Pfair scheduler over the whole set (all tasks join
// at slot 0), recording its trace into rec, which it resets first, and
// returns the scheduler, or nil if a join was rejected. A rejection is
// itself a violation for the full-utilization kinds: their sets satisfy
// Σwt = M by construction.
func runPfair(set task.Set, m int, alg core.Algorithm, horizon int64, rec *verify.Recorder, v *violations) *core.Scheduler {
	s := core.NewScheduler(m, alg, core.Options{})
	rec.Reset()
	s.OnSlot(rec.Record)
	for _, t := range set {
		if err := s.Join(t); err != nil {
			v.addf("%v: join %v rejected: %v", alg, t, err)
			return nil
		}
	}
	s.RunUntil(horizon)
	s.FinishMisses(horizon)
	return s
}

// checkFullUtil: PD² (or its mutant), PD, and PF are all optimal, so on a
// set with Σwt = M every one of them must produce a miss-free trace that
// passes the full independent verification — windows, sequence, lag at
// every slot, completion.
func checkFullUtil(c Case, mutant core.Algorithm) Outcome {
	var v violations
	rec := getRecorder()
	defer recorders.Put(rec)
	for _, alg := range []core.Algorithm{mutant, core.PD, core.PF} {
		s := runPfair(c.Set, c.M, alg, c.Horizon, rec, &v)
		if s == nil {
			continue
		}
		if misses := s.Stats().Misses; len(misses) > 0 {
			v.addf("%v: %d deadline misses on a full-utilization set, first %s", alg, len(misses), missText(misses[0], s.Name))
		}
		v.addVerify(alg.String(), verify.Check(c.Set, rec.Slots, verify.Options{
			Processors: c.M,
			Horizon:    c.Horizon,
		}))
	}
	return Outcome{Violations: v.list}
}

// checkEPDF: EPDF vs the PD² baseline on one full-utilization set. PD²
// must always succeed. EPDF must succeed on M ≤ 2 (where it is optimal);
// on M ≥ 3 a miss is an explained counterexample, but the trace must
// still be structurally sound (capacity, sequence, windows-with-tardiness).
func checkEPDF(c Case) Outcome {
	var v violations
	rec := getRecorder()
	defer recorders.Put(rec)
	if s := runPfair(c.Set, c.M, core.PD2, c.Horizon, rec, &v); s != nil {
		if misses := s.Stats().Misses; len(misses) > 0 {
			v.addf("PD2 baseline: %d misses on a full-utilization set, first %s", len(misses), missText(misses[0], s.Name))
		}
	}
	explained := 0
	if s := runPfair(c.Set, c.M, core.EPDF, c.Horizon, rec, &v); s != nil {
		switch misses := s.Stats().Misses; {
		case len(misses) == 0:
			v.addVerify("EPDF", verify.Check(c.Set, rec.Slots, verify.Options{
				Processors: c.M,
				Horizon:    c.Horizon,
			}))
		case c.M <= 2:
			v.addf("EPDF: %d misses on %d processors, but EPDF is optimal for M ≤ 2; first %s",
				len(misses), c.M, missText(misses[0], s.Name))
		default:
			explained = 1 // a fresh counterexample to EPDF optimality
			v.addVerify("EPDF(tardy)", verify.Check(c.Set, rec.Slots, verify.Options{
				Processors: c.M,
				AllowTardy: true,
				SkipLag:    true,
			}))
		}
	}
	return Outcome{Violations: v.list, Explained: explained}
}

// checkEDF: the event-driven simulator against the exact Σu ≤ 1 test,
// both directions. One synchronous hyperperiod decides: a schedulable set
// must show no misses, and an overloaded set (demand > supply over the
// hyperperiod) must show at least one.
func checkEDF(c Case) Outcome {
	var v violations
	sim := edf.NewSimulator()
	for _, t := range c.Set {
		if err := sim.Add(edf.Config{Task: t}); err != nil {
			v.addf("edf: add %v: %v", t, err)
			return Outcome{Violations: v.list}
		}
	}
	sim.Run(c.Horizon)
	misses := sim.Stats().Misses
	sched := edf.Schedulable(c.Set)
	if sched && len(misses) > 0 {
		v.addf("edf: exact test says schedulable (Σu = %v) but simulator missed %d deadlines, first %+v",
			c.Set.TotalWeight(), len(misses), misses[0])
	}
	if !sched && len(misses) == 0 {
		v.addf("edf: exact test says unschedulable (Σu = %v) but one hyperperiod ran clean", c.Set.TotalWeight())
	}
	return Outcome{Violations: v.list}
}

// checkRM: exact response-time analysis against the fixed-priority
// simulator (the synchronous release is the critical instant, so they
// must agree), plus the sufficient tests, which may never contradict the
// exact one.
func checkRM(c Case) Outcome {
	var v violations
	_, exact := rm.ResponseTimes(c.Set)
	sim := edf.NewRMSimulator()
	for _, t := range c.Set {
		if err := sim.Add(edf.Config{Task: t}); err != nil {
			v.addf("rm: add %v: %v", t, err)
			return Outcome{Violations: v.list}
		}
	}
	sim.Run(c.Horizon)
	misses := sim.Stats().Misses
	if exact && len(misses) > 0 {
		v.addf("rm: response-time analysis says schedulable but simulator missed %d deadlines, first %+v",
			len(misses), misses[0])
	}
	if !exact && len(misses) == 0 {
		v.addf("rm: response-time analysis says unschedulable but the critical-instant simulation ran clean")
	}
	if rm.SchedulableLL(c.Set) && !exact {
		v.addf("rm: Liu–Layland bound accepts a set the exact test rejects")
	}
	if admission.Hyperbolic(c.Set, nil) == nil && !exact {
		v.addf("rm: hyperbolic bound accepts a set the exact test rejects")
	}
	return Outcome{Violations: v.list}
}

var partitionHeuristics = []partition.Heuristic{
	partition.FirstFit, partition.BestFit, partition.WorstFit, partition.NextFit,
}

// checkPartition: the branch-and-bound packer is the ground truth the
// heuristics must never beat, ⌈ΣU⌉ is the bound nothing may beat, and
// every Pack placement must replay through the acceptance test it was
// made under.
func checkPartition(c Case) Outcome {
	var v violations
	exact, ok := partition.MinProcessorsExact(c.Set, partition.EDFTest)
	if !ok {
		v.addf("partition: exact packer failed to place a set with per-task u ≤ 1")
		return Outcome{Violations: v.list}
	}
	if lower := c.Set.MinProcessors(); exact < lower {
		v.addf("partition: exact packer used %d processors, below the utilization bound ⌈ΣU⌉ = %d", exact, lower)
	}
	for _, h := range partitionHeuristics {
		mh, okh := partition.MinProcessors(c.Set, h, partition.EDFTest)
		if !okh {
			v.addf("partition: %v failed to place a set with per-task u ≤ 1", h)
			continue
		}
		if mh < exact {
			v.addf("partition: %v used %d processors, beating the exact minimum %d", h, mh, exact)
		}
		a := partition.Pack(c.Set, 0, h, partition.EDFTest)
		placed := 0
		for _, proc := range a.Processors {
			for i, t := range proc {
				if !partition.EDFTest(proc[:i], t) {
					v.addf("partition: %v placed %v on a processor the acceptance test rejects", h, t)
				}
				placed++
			}
		}
		if placed+len(a.Unplaced) != len(c.Set) {
			v.addf("partition: %v lost tasks: %d placed + %d unplaced ≠ %d", h, placed, len(a.Unplaced), len(c.Set))
		}
		if len(a.Unplaced) > 0 {
			v.addf("partition: %v left %d tasks unplaced with unbounded processors", h, len(a.Unplaced))
		}
	}
	return Outcome{Violations: v.list}
}

// checkDynamic replays the join/leave script. Every admitted task must
// keep all its deadlines (joins are gated by Equation (2) and departures
// delayed to their safe slots, so the system is never infeasible), and
// the trace must verify with each task's windows shifted by its join
// slot. Join rejections are legitimate — an overweight joiner is exactly
// what the admission test is for — and simply leave the task out.
// The verified set lists the tasks in admission (id) order.
func checkDynamic(c Case, mutant core.Algorithm) Outcome {
	var v violations
	s := core.NewScheduler(c.M, mutant, core.Options{})
	rec := getRecorder()
	defer recorders.Put(rec)
	s.OnSlot(rec.Record)
	// Each slot's joins, in set order; a task with no Joins entry joins
	// at slot 0. An admitted task's leave is scheduled as it joins.
	joins := map[int64][]*task.Task{}
	for _, t := range c.Set {
		at := c.Joins[t.Name]
		joins[at] = append(joins[at], t)
	}
	leaves := map[int64][]string{}
	var vset task.Set
	var offs []func(int64) int64
	for slot := int64(0); slot < c.Horizon; slot++ {
		for _, t := range joins[slot] {
			if err := s.Join(t); err == nil {
				vset = append(vset, t)
				join := slot
				offs = append(offs, func(int64) int64 { return join })
				if at, ok := c.Leaves[t.Name]; ok {
					leaves[at] = append(leaves[at], t.Name)
				}
			}
		}
		for _, name := range leaves[slot] {
			if _, err := s.Submit(admission.Leave(name)); err != nil {
				v.addf("dynamic: leave %s: %v", name, err)
			}
		}
		s.Step()
	}
	s.FinishMisses(c.Horizon)
	if misses := s.Stats().Misses; len(misses) > 0 {
		v.addf("dynamic: %d misses under admitted joins and safe leaves, first %s", len(misses), missText(misses[0], s.Name))
	}
	v.addVerify("dynamic", verify.Check(vset, rec.Slots, verify.Options{
		Processors: c.M,
		SkipLag:    true, // lag is measured from each task's own join, not slot 0
		Offsets:    offs,
	}))
	return Outcome{Violations: v.list}
}

// checkIS runs the set under its intra-sporadic delay tables. PD² remains
// optimal for IS systems, so admitted tasks miss nothing, and the trace
// must verify with the per-subtask shifted windows, completion included.
func checkIS(c Case, mutant core.Algorithm) Outcome {
	var v violations
	s := core.NewScheduler(c.M, mutant, core.Options{})
	rec := getRecorder()
	defer recorders.Put(rec)
	s.OnSlot(rec.Record)
	var vset task.Set
	var offs []func(int64) int64
	for _, t := range c.Set {
		m := isModel{c.Delays[t.Name]}
		if _, err := s.Submit(admission.JoinModel(t, m)); err == nil {
			vset = append(vset, t)
			offs = append(offs, m.Offset)
		}
	}
	if len(vset) == 0 {
		v.addf("is: no task admitted (Σu = %v on %d processors)", c.Set.TotalWeight(), c.M)
		return Outcome{Violations: v.list}
	}
	s.RunUntil(c.Horizon)
	s.FinishMisses(c.Horizon)
	if misses := s.Stats().Misses; len(misses) > 0 {
		v.addf("is: %d misses on a feasible IS system, first %s", len(misses), missText(misses[0], s.Name))
	}
	v.addVerify("is", verify.Check(vset, rec.Slots, verify.Options{
		Processors: c.M,
		Horizon:    c.Horizon,
		SkipLag:    true, // the fluid reference shifts with every IS delay
		Offsets:    offs,
	}))
	return Outcome{Violations: v.list}
}
