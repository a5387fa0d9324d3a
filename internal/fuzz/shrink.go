package fuzz

import (
	"pfair/internal/core"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// Shrink reduces a failing case to a locally-minimal reproducer: it
// repeatedly tries dropping a task, decrementing the processor count,
// halving a cost, and halving the horizon, keeping any reduction that
// still fails the oracle, until no single reduction does. The result is
// what a human debugs instead of the original dozen-task set.
func Shrink(c Case, mutant core.Algorithm) Case {
	cur := c
	for {
		next, reduced := shrinkStep(cur, mutant)
		if !reduced {
			return cur
		}
		cur = next
	}
}

func fails(c Case, mutant core.Algorithm) bool {
	return len(CheckCase(c, mutant).Violations) > 0
}

// shrinkStep tries every single-edit reduction and returns the first that
// still fails.
func shrinkStep(c Case, mutant core.Algorithm) (Case, bool) {
	// Drop one task (and its join/leave/delay script entries).
	for i := range c.Set {
		if len(c.Set) <= 1 {
			break
		}
		cand := dropTask(c, i)
		if fails(cand, mutant) {
			return cand, true
		}
	}
	// Decrement the processor count, keeping the set feasible so that
	// admission failures cannot masquerade as scheduler bugs.
	if usesProcessors(c.Kind) && c.M > 1 && c.Set.MinProcessors() <= c.M-1 {
		cand := c
		cand.M--
		if fails(cand, mutant) {
			return cand, true
		}
	}
	// Drop one task AND give up a processor together: on full-utilization
	// sets a lone drop opens slack that hides the bug, but shedding a
	// near-unit-weight task along with one processor keeps the system
	// tight.
	if usesProcessors(c.Kind) && c.M > 1 {
		for i := range c.Set {
			if len(c.Set) <= 1 {
				break
			}
			cand := dropTask(c, i)
			cand.M--
			if cand.Set.MinProcessors() <= cand.M && fails(cand, mutant) {
				return cand, true
			}
		}
	}
	// Drop task i, give up one processor, and trim task j by exactly
	// 1 − wt(i), so the total weight drops by exactly one and the set
	// stays tight at Σwt = M−1. On heavy full-utilization sets this is
	// the only way to lose a task at all: a lone drop leaves a fractional
	// hole that M−1 processors cannot cover and M processors cover with
	// bug-hiding slack.
	if (c.Kind == KindFullUtil || c.Kind == KindEPDF) && c.M > 1 && len(c.Set) > 1 {
		for i := range c.Set {
			makeup := rational.One().Sub(c.Set[i].Weight())
			for j := range c.Set {
				if j == i {
					continue
				}
				wj := c.Set[j].Weight().Sub(makeup)
				if wj.Sign() <= 0 {
					continue
				}
				cand := dropTask(c, i)
				cand.M--
				jj := j
				if i < j {
					jj--
				}
				cand.Set[jj] = task.MustNew(cand.Set[jj].Name, wj.Num(), wj.Den())
				cand.Horizon = 2 * cand.Set.Hyperperiod()
				if fails(cand, mutant) {
					return cand, true
				}
			}
		}
	}
	// Merge two tasks into one of exactly their summed weight (when that
	// is ≤ 1). This shrinks the task count without opening any slack —
	// the reduction that actually minimizes full-utilization cases. Only
	// for the plain periodic kinds: a merge has no meaning across
	// different join slots or delay tables.
	if c.Kind == KindFullUtil || c.Kind == KindEPDF {
		for i := range c.Set {
			for j := i + 1; j < len(c.Set); j++ {
				w := c.Set[i].Weight().Add(c.Set[j].Weight())
				if rational.One().Less(w) {
					continue
				}
				cand := c
				cand.Set = append(task.Set{}, c.Set...)
				cand.Set[i] = task.MustNew(c.Set[i].Name, w.Num(), w.Den())
				cand.Set = append(cand.Set[:j], cand.Set[j+1:]...)
				cand.Horizon = 2 * cand.Set.Hyperperiod()
				if fails(cand, mutant) {
					return cand, true
				}
			}
		}
	}
	// Halve one task's cost (weight shrinks, feasibility is preserved).
	for i, t := range c.Set {
		if t.Cost <= 1 {
			continue
		}
		cand := c
		cand.Set = c.Set.Clone()
		cand.Set[i] = task.MustNew(t.Name, t.Cost/2, t.Period)
		if fails(cand, mutant) {
			return cand, true
		}
	}
	// Halve the horizon.
	if c.Horizon > 4 {
		cand := c
		cand.Horizon = c.Horizon / 2
		if fails(cand, mutant) {
			return cand, true
		}
	}
	return c, false
}

func usesProcessors(k Kind) bool {
	switch k {
	case KindFullUtil, KindEPDF, KindDynamic, KindIS, KindDynPlane:
		return true
	}
	return false
}

func dropTask(c Case, i int) Case {
	cand := c
	name := c.Set[i].Name
	cand.Set = append(append(task.Set{}, c.Set[:i]...), c.Set[i+1:]...)
	cand.Joins = dropKey(c.Joins, name)
	cand.Leaves = dropKey(c.Leaves, name)
	cand.Reweights = dropKey(c.Reweights, name)
	if c.Delays != nil {
		d := make(map[string][]int64, len(c.Delays))
		for k, v := range c.Delays { //pfair:orderinvariant rebuilds a map; insertion order does not affect map equality
			if k != name {
				d[k] = v
			}
		}
		cand.Delays = d
	}
	return cand
}

func dropKey[V any](m map[string]V, name string) map[string]V {
	if m == nil {
		return nil
	}
	out := make(map[string]V, len(m))
	for k, v := range m { //pfair:orderinvariant rebuilds a map; insertion order does not affect map equality
		if k != name {
			out[k] = v
		}
	}
	return out
}
