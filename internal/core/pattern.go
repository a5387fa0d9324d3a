// Package core implements the paper's primary contribution: Pfair
// scheduling of recurrent real-time tasks on multiprocessors.
//
// It provides the subtask algebra of Section 2 (windows, pseudo-releases
// and pseudo-deadlines, b-bits, group deadlines, lags), the optimal global
// schedulers PF, PD, and PD² plus the naive EPDF baseline, the
// work-conserving ERfair variant, the intra-sporadic (IS) task model, and
// the dynamic join/leave/reweight rules.
//
// # Model
//
// Time is divided into unit-length slots; slot t is the interval [t, t+1).
// A periodic task T with integer cost e = T.Cost and period p = T.Period has
// weight wt(T) = e/p and is divided into quantum-length subtasks T₁, T₂, ….
// Subtask Tᵢ must execute within its window
//
//	w(Tᵢ) = [r(Tᵢ), d(Tᵢ)),  r(Tᵢ) = ⌊(i−1)·p/e⌋,  d(Tᵢ) = ⌈i·p/e⌉,
//
// or the Pfair condition −1 < lag(T, t) < 1 (Equation (1)) is violated.
package core

import (
	"fmt"

	"pfair/internal/rational"
)

// Pattern captures the Pfair window structure of a task with cost e and
// period p. All subtask parameters are pure functions of (e, p, i); the
// struct tabulates them for the first e subtasks, since the pattern
// repeats with period p in time every e subtasks:
//
//	r(Tᵢ₊ₑ) = r(Tᵢ) + p, d(Tᵢ₊ₑ) = d(Tᵢ) + p, b(Tᵢ₊ₑ) = b(Tᵢ),
//	D(Tᵢ₊ₑ) = D(Tᵢ) + p.
type Pattern struct {
	e, p int64
	// heavy and weight are fixed at construction: the scheduler's priority
	// comparator (PD's heavy-before-light and weight tie-breaks) runs
	// inside ready-queue operations, where rebuilding rationals per call
	// dominated the PD hot path.
	heavy  bool
	weight rational.Rat
	// release/deadline/bbit tables for the first period, indexed by i−1
	// for 1 ≤ i ≤ e; all three repeat every e subtasks shifted by p. Built
	// at construction when e ≤ patternTableMax, nil otherwise (the direct
	// formulas remain the fallback).
	release  []int64
	deadline []int64
	bbit     []uint8
	// gd[i-1] is the group deadline of subtask i, for 1 ≤ i ≤ e (heavy
	// tasks only): filled at construction alongside the other tables, nil
	// for patterns too large to tabulate (GroupDeadline then uses the
	// closed form).
	gd []int64
}

// patternTableMax bounds the per-period tables: a pattern with cost above
// it (three int64 tables ≈ 100 KiB) falls back to the direct formulas and
// the closed-form group deadline, so its memory does not grow with its
// cost. Every workload in the paper's experiments has costs well below
// the bound.
const patternTableMax = 4096

// NewPattern returns the window pattern for a task with the given cost and
// period. It panics unless 0 < cost ≤ period.
//
// Every pattern is immutable after construction and safe for concurrent
// readers.
func NewPattern(cost, period int64) *Pattern {
	if cost <= 0 || period < cost {
		//pfair:allowpanic constructor contract: parameters were validated by task.New before reaching here
		panic(fmt.Sprintf("core: invalid pattern %d/%d", cost, period))
	}
	pt := &Pattern{
		e:      cost,
		p:      period,
		heavy:  2*cost >= period,
		weight: rational.New(cost, period),
	}
	if cost <= patternTableMax {
		pt.release = make([]int64, cost)
		pt.deadline = make([]int64, cost)
		pt.bbit = make([]uint8, cost)
		for i := int64(1); i <= cost; i++ {
			pt.release[i-1] = rational.FloorDiv((i-1)*period, cost)
			pt.deadline[i-1] = rational.CeilDiv(i*period, cost)
			if (i*period)%cost != 0 {
				pt.bbit[i-1] = 1
			}
		}
		if pt.heavy {
			pt.fillGroupDeadlines()
		}
	}
	return pt
}

// fillGroupDeadlines tabulates D(Tᵢ) for the first period in O(e) by a
// backward pass. Writing E(j) for the first cascade event at or after
// subtask j — the earliest k ≥ j with |w(Tₖ)| = 3 (event d(Tₖ)−1) or
// b(Tₖ) = 0 (event d(Tₖ)) — the definition reduces to
//
//	D(Tᵢ) = d(Tᵢ) if b(Tᵢ) = 0, else E(i+1),
//
// because for a heavy task d is strictly increasing, so the walk's guard
// d(Tₖ)−1 ≥ d(Tᵢ) holds automatically for every k > i and can never hold
// at k = i. E satisfies E(j) = event(j) if one occurs at j, else E(j+1),
// and b(Tₑ) = 0 grounds the recurrence within the period.
// groupDeadlineSlow remains the executable ground truth; the tests check
// the table and the closed form against it.
func (pt *Pattern) fillGroupDeadlines() {
	e := pt.e
	pt.gd = make([]int64, e)
	ev := make([]int64, e+1) // ev[j-1] = E(j)
	for j := e; j >= 1; j-- {
		d := pt.deadline[j-1]
		switch {
		case d-pt.release[j-1] == 3:
			ev[j-1] = d - 1
		case pt.bbit[j-1] == 0:
			ev[j-1] = d
		default:
			ev[j-1] = ev[j] // safe: b(Tₑ) = 0, so j < e here
		}
	}
	for i := int64(1); i <= e; i++ {
		if pt.bbit[i-1] == 0 {
			pt.gd[i-1] = pt.deadline[i-1]
		} else {
			pt.gd[i-1] = ev[i]
		}
	}
}

// Cost returns the per-job execution cost e.
func (pt *Pattern) Cost() int64 { return pt.e }

// Period returns the period p.
func (pt *Pattern) Period() int64 { return pt.p }

// Weight returns wt(T) = e/p.
//
//pfair:hotpath
func (pt *Pattern) Weight() rational.Rat { return pt.weight }

// Heavy reports whether wt(T) ≥ 1/2.
//
//pfair:hotpath
func (pt *Pattern) Heavy() bool { return pt.heavy }

// Release returns the pseudo-release r(Tᵢ) = ⌊(i−1)·p/e⌋ of subtask i ≥ 1.
//
//pfair:hotpath
func (pt *Pattern) Release(i int64) int64 {
	if pt.release != nil {
		cycles := (i - 1) / pt.e
		return pt.release[i-1-cycles*pt.e] + cycles*pt.p
	}
	return rational.FloorDiv((i-1)*pt.p, pt.e)
}

// Deadline returns the pseudo-deadline d(Tᵢ) = ⌈i·p/e⌉ of subtask i ≥ 1.
// Tᵢ must be scheduled in [Release(i), Deadline(i)).
//
//pfair:hotpath
func (pt *Pattern) Deadline(i int64) int64 {
	if pt.deadline != nil {
		cycles := (i - 1) / pt.e
		return pt.deadline[i-1-cycles*pt.e] + cycles*pt.p
	}
	return rational.CeilDiv(i*pt.p, pt.e)
}

// WindowLength returns |w(Tᵢ)| = d(Tᵢ) − r(Tᵢ).
//
//pfair:hotpath
func (pt *Pattern) WindowLength(i int64) int64 {
	return pt.Deadline(i) - pt.Release(i)
}

// BBit returns b(Tᵢ): 1 if Tᵢ's window overlaps Tᵢ₊₁'s window and 0
// otherwise. Consecutive windows overlap by exactly one slot iff
// r(Tᵢ₊₁) = d(Tᵢ) − 1, which holds iff i·p is not a multiple of e.
//
//pfair:hotpath
func (pt *Pattern) BBit(i int64) int {
	if pt.bbit != nil {
		cycles := (i - 1) / pt.e
		return int(pt.bbit[i-1-cycles*pt.e])
	}
	if (i*pt.p)%pt.e != 0 {
		return 1
	}
	return 0
}

// GroupDeadline returns D(Tᵢ), the time by which a cascade of forced
// allocations starting at Tᵢ must end: the earliest t ≥ d(Tᵢ) such that for
// some k ≥ i either (t = d(Tₖ) ∧ b(Tₖ) = 0) or (t+1 = d(Tₖ) ∧ |w(Tₖ)| = 3).
//
// Group deadlines only matter for heavy tasks (weight ≥ 1/2, whose windows
// have length two or three); for light tasks PD² defines D(Tᵢ) = 0.
// Patterns above patternTableMax use GroupDeadlineClosed.
//
//pfair:hotpath
func (pt *Pattern) GroupDeadline(i int64) int64 {
	if !pt.heavy {
		return 0
	}
	if pt.gd == nil {
		return pt.GroupDeadlineClosed(i)
	}
	// Reduce to the first period using D(Tᵢ₊ₑ) = D(Tᵢ) + p.
	cycles := (i - 1) / pt.e
	return pt.gd[i-1-cycles*pt.e] + cycles*pt.p
}

// GroupDeadlineClosed returns D(Tᵢ) by the closed form: the group
// deadlines of a heavy task of weight e/p are exactly the subtask
// deadlines of the complementary task of weight (p−e)/p, so
//
//	D(Tᵢ) = ⌈k·p/(p−e)⌉ for the smallest k with that value ≥ d(Tᵢ),
//	i.e. k = ⌈d(Tᵢ)·(p−e)/p⌉.
//
// Intuitively, the complement's subtasks mark the slots the cascade must
// leave free. Weight-1 tasks have no complement and D(Tᵢ) = d(Tᵢ). The
// iterative walk (groupDeadlineSlow) is the ground truth;
// TestQuickGroupDeadlineClosedForm checks the two agree everywhere.
//
//pfair:hotpath
func (pt *Pattern) GroupDeadlineClosed(i int64) int64 {
	if !pt.Heavy() {
		return 0
	}
	comp := pt.p - pt.e
	if comp == 0 {
		return pt.Deadline(i) // weight 1: every b-bit is 0
	}
	d := pt.Deadline(i)
	k := rational.CeilDiv(d*comp, pt.p)
	return rational.CeilDiv(k*pt.p, comp)
}

// groupDeadlineSlow walks the subtask sequence to apply the definition
// directly. For a heavy task every window has length 2 or 3, and a cascade
// ends within one period, so the walk terminates within e+1 steps.
func (pt *Pattern) groupDeadlineSlow(i int64) int64 {
	di := pt.Deadline(i)
	for k := i; ; k++ {
		if pt.WindowLength(k) == 3 && pt.Deadline(k)-1 >= di {
			return pt.Deadline(k) - 1
		}
		if pt.BBit(k) == 0 {
			return pt.Deadline(k)
		}
		if k > i+pt.e+1 {
			//pfair:allowpanic invariant: a heavy task has a b-bit 0 within any e+1 consecutive subtasks
			panic(fmt.Sprintf("core: group deadline walk did not terminate for %d/%d subtask %d", pt.e, pt.p, i))
		}
	}
}

// JobIndex returns the 1-based index of the job containing subtask i: job j
// consists of subtasks (j−1)·e+1 … j·e.
func (pt *Pattern) JobIndex(i int64) int64 {
	return (i-1)/pt.e + 1
}

// FirstOfJob reports whether subtask i is the first subtask of its job.
// Under ERfair scheduling only non-first subtasks may be released early,
// because early release is defined within a job (Section 2).
func (pt *Pattern) FirstOfJob(i int64) bool {
	return (i-1)%pt.e == 0
}

// Lag returns lag(T, t) = wt(T)·t − allocated for a task that has received
// the given number of quanta by time t, as an exact rational.
//
//pfair:hotpath
func (pt *Pattern) Lag(t, allocated int64) rational.Rat {
	return rational.New(pt.e*t-allocated*pt.p, pt.p)
}
