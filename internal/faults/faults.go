// Package faults orchestrates the fault-tolerance and overload scenarios
// of Section 5.4: K of M processors fail at runtime; if the surviving
// capacity still covers the total weight, Pfair's global optimality
// absorbs the loss transparently, and otherwise the system degrades
// gracefully by reweighting non-critical tasks to run at a slower rate so
// that critical tasks are unaffected.
package faults

import (
	"fmt"
	"sort"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// Scenario describes one failure experiment.
type Scenario struct {
	// M is the initial processor count; Fail processors are removed at
	// slot FailAt.
	M      int
	Fail   int
	FailAt int64
	// Tasks is the workload; tasks with Critical set must keep their
	// full rate through the failure.
	Tasks task.Set
	// Horizon is the total simulated length in slots.
	Horizon int64
	// SettleSlack is how many slots after FailAt reweighting is allowed
	// to take effect before misses are held against the outcome
	// (leave-and-join needs the old tasks' safe departure points).
	SettleSlack int64
}

// Outcome reports the scenario's behaviour.
type Outcome struct {
	// Survivors is the processor count after the failure.
	Survivors int
	// Reweighted lists the tasks that were slowed down, with their new
	// parameters.
	Reweighted map[string][2]int64
	// MissesBefore counts deadline misses with deadlines at or before
	// FailAt (should always be zero).
	MissesBefore int
	// CriticalMissesAfterSettle counts misses of critical tasks with
	// deadlines after FailAt+SettleSlack — the figure of merit: zero
	// means the overload never touched the critical tasks.
	CriticalMissesAfterSettle int
	// NonCriticalMisses counts all non-critical misses after the
	// failure (transient misses during settling are expected under
	// overload).
	NonCriticalMisses int
}

// Run executes the scenario under PD². When shed is true and the
// survivors cannot carry the full load, non-critical tasks are
// reweighted down proportionally until the system fits.
func Run(s Scenario, shed bool) (Outcome, error) {
	if s.Fail >= s.M {
		return Outcome{}, fmt.Errorf("faults: cannot fail %d of %d processors", s.Fail, s.M)
	}
	sched := core.NewScheduler(s.M, core.PD2, core.Options{})
	for _, t := range s.Tasks {
		if _, err := sched.Submit(admission.Join(t)); err != nil {
			return Outcome{}, err
		}
	}
	if err := sched.RunUntil(s.FailAt); err != nil {
		return Outcome{}, err
	}
	out := Outcome{Reweighted: map[string][2]int64{}}
	out.Survivors = sched.FailProcessors(s.Fail)

	if shed {
		plan := shedPlan(s.Tasks, out.Survivors)
		// Reweight through Submit in the declared task order, not map
		// order: each reweight lands at the scheduler's current slot, and
		// the paper's reweighting rules make the resulting windows depend
		// on the order of application.
		for _, t := range s.Tasks {
			ep, ok := plan[t.Name]
			if !ok {
				continue
			}
			if _, err := sched.Submit(admission.Reweight(t.Name, ep[0], ep[1])); err != nil {
				// Return the partial outcome alongside the error: the
				// reweights already applied (and the processor failure)
				// have happened, and a caller recovering from a refused
				// shed needs to know how far the plan got.
				return out, fmt.Errorf("faults: reweighting %s: %w", t.Name, err)
			}
			out.Reweighted[t.Name] = ep
		}
	}
	if err := sched.RunUntil(s.Horizon); err != nil {
		// Same contract on a livelocked finish: the outcome so far (the
		// survivors and every applied reweight) accompanies the error.
		return out, err
	}
	sched.FinishMisses(s.Horizon)

	// Ids past the set are reweight incarnations of non-critical tasks.
	for _, m := range sched.Stats().Misses {
		switch {
		case m.Deadline <= s.FailAt:
			out.MissesBefore++
		case m.Task < len(s.Tasks) && s.Tasks[m.Task].Critical:
			if m.Deadline > s.FailAt+s.SettleSlack {
				out.CriticalMissesAfterSettle++
			}
		default:
			out.NonCriticalMisses++
		}
	}
	return out, nil
}

// shedPlan computes new (cost, period) pairs for non-critical tasks so
// that critical weight + shed non-critical weight fits on the survivors.
// Each non-critical task keeps its period and has its cost scaled by the
// largest uniform factor that fits (at least cost 1).
func shedPlan(tasks task.Set, survivors int) map[string][2]int64 {
	critW := rational.NewAcc()
	var noncrit task.Set
	for _, t := range tasks {
		if t.Critical {
			critW.Add(t.Weight())
		} else {
			noncrit = append(noncrit, t)
		}
	}
	total := critW.Clone()
	for _, t := range noncrit {
		total.Add(t.Weight())
	}
	if total.CmpInt(int64(survivors)) <= 0 {
		return nil // still feasible, nothing to shed
	}
	// Binary-search the scale factor in 1/1024 steps, conservatively.
	plan := map[string][2]int64{}
	lo, hi := int64(0), int64(1024)
	fits := func(num int64) bool {
		w := critW.Clone()
		for _, t := range noncrit {
			c := t.Cost * num / 1024
			if c < 1 {
				c = 1
			}
			w.Add(rational.New(c, t.Period))
		}
		return w.CmpInt(int64(survivors)) <= 0
	}
	if !fits(lo) {
		// Even minimum-rate non-critical tasks do not fit: shed as far
		// as possible anyway; critical misses will expose the deficit.
		hi = 0
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	for _, t := range noncrit {
		c := t.Cost * lo / 1024
		if c < 1 {
			c = 1
		}
		if c != t.Cost {
			plan[t.Name] = [2]int64{c, t.Period}
		}
	}
	return plan
}

// Names returns the reweighted task names in sorted order (for stable
// reporting).
func (o Outcome) Names() []string {
	names := make([]string, 0, len(o.Reweighted))
	for n := range o.Reweighted { //pfair:orderinvariant collects keys for sorting
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
