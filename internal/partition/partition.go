// Package partition implements the task-to-processor assignment side of
// the paper's comparison (Section 3): the online bin-packing heuristics
// first-fit, best-fit, worst-fit, and next-fit, their decreasing-order
// offline variants (FFD, BFD), an exact branch-and-bound packer for small
// sets, and the analytical utilization bounds (the (M+1)/2 worst case for
// every heuristic and the Lopez et al. bound parameterized by the maximum
// task utilization).
//
// The acceptance test is pluggable, so the same heuristics serve EDF
// partitioning (utilization ≤ 1 per processor, exact for implicit
// deadlines) and the overhead-inflated tests of Section 4.
package partition

import (
	"fmt"

	"pfair/internal/rational"
	"pfair/internal/task"
)

// AcceptanceTest reports whether candidate can be added to a processor that
// already holds assigned, under the per-processor scheduler's
// schedulability test.
type AcceptanceTest func(assigned task.Set, candidate *task.Task) bool

// EDFTest is the exact uniprocessor EDF test for implicit-deadline
// periodic tasks: total utilization at most one.
func EDFTest(assigned task.Set, candidate *task.Task) bool {
	total := assigned.TotalWeight().Add(candidate.Weight())
	return total.CmpInt(1) <= 0
}

// Heuristic selects the processor-choice rule.
type Heuristic int

const (
	// FirstFit assigns each task to the lowest-indexed processor that
	// accepts it.
	FirstFit Heuristic = iota
	// BestFit chooses, among accepting processors, the one with minimal
	// spare capacity after the addition.
	BestFit
	// WorstFit chooses the accepting processor with maximal spare
	// capacity after the addition.
	WorstFit
	// NextFit only ever tries the most recently used processor, moving
	// forward when it rejects.
	NextFit
)

func (h Heuristic) String() string {
	switch h {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	case NextFit:
		return "next-fit"
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// Assignment is a partition of tasks onto processors.
type Assignment struct {
	// Processors holds the tasks bound to each processor, in placement
	// order.
	Processors []task.Set
	// Unplaced lists tasks no processor accepted (empty on success).
	Unplaced task.Set
}

// OK reports whether every task was placed.
func (a *Assignment) OK() bool { return len(a.Unplaced) == 0 }

// NumUsed returns the number of non-empty processors.
func (a *Assignment) NumUsed() int {
	n := 0
	for _, p := range a.Processors {
		if len(p) > 0 {
			n++
		}
	}
	return n
}

// spare returns the spare utilization 1 − Σu of a processor as an exact
// arbitrary-precision rational. It is the capacity measure used by best-
// and worst-fit; for non-utilization acceptance tests it is a standard
// proxy. Acc keeps the value exact even when the assigned periods are
// co-prime enough that the sum's denominator overflows int64.
func spare(assigned task.Set) *rational.Acc {
	sp := rational.NewAcc().SetInt(1)
	for _, t := range assigned {
		sp.Sub(t.Weight())
	}
	return sp
}

// Pack assigns tasks to at most m processors (m ≤ 0 means unbounded,
// opening processors on demand — the mode used to find the minimum
// processor count). Tasks are considered in the order given; pre-sort with
// task.Set.SortByUtilizationDecreasing for FFD/BFD or
// SortByPeriodDecreasing for the Section 4 overhead-aware placement.
func Pack(set task.Set, m int, h Heuristic, accept AcceptanceTest) *Assignment {
	a := &Assignment{}
	if m > 0 {
		a.Processors = make([]task.Set, m)
	}
	last := 0 // next-fit cursor
	for _, t := range set {
		idx := -1
		switch h {
		case FirstFit:
			for i := range a.Processors {
				if accept(a.Processors[i], t) {
					idx = i
					break
				}
			}
		case NextFit:
			for i := last; i < len(a.Processors); i++ {
				if accept(a.Processors[i], t) {
					idx = i
					break
				}
			}
		case BestFit, WorstFit:
			var bestSpare *rational.Acc
			for i := range a.Processors {
				if !accept(a.Processors[i], t) {
					continue
				}
				sp := spare(a.Processors[i]).Sub(t.Weight())
				better := idx < 0 ||
					(h == BestFit && sp.CmpAcc(bestSpare) < 0) ||
					(h == WorstFit && bestSpare.CmpAcc(sp) < 0)
				if better {
					idx, bestSpare = i, sp
				}
			}
		}
		if idx < 0 && m <= 0 {
			// Open a new processor.
			a.Processors = append(a.Processors, nil)
			idx = len(a.Processors) - 1
			if !accept(a.Processors[idx], t) {
				// The task does not fit even on an empty processor
				// (possible under inflated or RM tests).
				a.Processors = a.Processors[:idx]
				idx = -1
			}
		}
		if idx < 0 {
			a.Unplaced = append(a.Unplaced, t)
			continue
		}
		a.Processors[idx] = append(a.Processors[idx], t)
		if h == NextFit {
			last = idx
		}
	}
	return a
}

// MinProcessors returns the number of processors the heuristic needs to
// place every task (tasks considered in the given order), or ok=false if
// some task fits on no processor at all.
func MinProcessors(set task.Set, h Heuristic, accept AcceptanceTest) (int, bool) {
	a := Pack(set, 0, h, accept)
	if !a.OK() {
		return 0, false
	}
	return a.NumUsed(), true
}

// MinProcessorsExact finds the true minimum number of processors by
// branch-and-bound over all assignments, with the given acceptance test.
// It is exponential and intended for small sets (≲ 20 tasks); it proves
// the heuristics sub-optimal in tests. Tasks are pre-sorted by decreasing
// utilization, and symmetry is broken by allowing each task into at most
// one currently-empty processor.
func MinProcessorsExact(set task.Set, accept AcceptanceTest) (int, bool) {
	sorted := set.SortByUtilizationDecreasing()
	// Upper bound from FFD; lower bound from total utilization.
	best, ok := MinProcessors(sorted, FirstFit, accept)
	if !ok {
		return 0, false
	}
	lower := int(set.TotalWeight().Ceil())
	if best == lower {
		return best, true
	}
	procs := make([]task.Set, 0, best)
	var dfs func(i int) bool
	found := best
	dfs = func(i int) bool {
		if len(procs) >= found {
			return false // already no better than the best known
		}
		if i == len(sorted) {
			found = len(procs)
			return found == lower
		}
		t := sorted[i]
		for k := range procs {
			if accept(procs[k], t) {
				procs[k] = append(procs[k], t)
				if dfs(i + 1) {
					return true
				}
				procs[k] = procs[k][:len(procs[k])-1]
			}
		}
		// Symmetry breaking: opening any empty processor is equivalent.
		if len(procs)+1 < found && accept(nil, t) {
			procs = append(procs, task.Set{t})
			if dfs(i + 1) {
				return true
			}
			procs = procs[:len(procs)-1]
		}
		return false
	}
	dfs(0)
	return found, true
}

// LopezBound returns the worst-case achievable utilization of EDF
// partitioning on m processors when every task's utilization is at most
// umax (Lopez et al. [27]): (β·m + 1)/(β + 1) with β = ⌊1/umax⌋. Any task
// set with total utilization at most the bound is schedulable by EDF-FF;
// with umax = 1 it degenerates to the (m+1)/2 worst case of Section 3.
// A umax outside (0, 1] — reachable from generated task parameters, e.g.
// the maximum utilization of an empty set — is reported as an error.
func LopezBound(m int, umax rational.Rat) (rational.Rat, error) {
	if m < 1 {
		return rational.Zero(), fmt.Errorf("partition: LopezBound needs m ≥ 1, got %d", m)
	}
	if umax.Sign() <= 0 || rational.One().Less(umax) {
		return rational.Zero(), fmt.Errorf("partition: umax %v outside (0, 1]", umax)
	}
	beta := rational.One().Div(umax).Floor()
	return rational.New(beta*int64(m)+1, beta+1), nil
}
