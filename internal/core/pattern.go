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
// period p. All subtask parameters are pure functions of (e, p, i), and
// Pattern computes them in closed form from one division of i·p by e
// (see window); it stores nothing that grows with e or i.
type Pattern struct {
	e, p int64
	// heavy and weight are fixed at construction: the scheduler's priority
	// comparator (PD's heavy-before-light and weight tie-breaks) runs
	// inside ready-queue operations, where rebuilding rationals per call
	// dominated the PD hot path.
	heavy  bool
	weight rational.Rat
	// pq = ⌊p/e⌋ and pr = p mod e let window derive r(Tᵢ) from the same
	// quotient as d(Tᵢ).
	pq, pr int64
}

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
	return &Pattern{
		e:      cost,
		p:      period,
		heavy:  2*cost >= period,
		weight: rational.New(cost, period),
		pq:     period / cost,
		pr:     period % cost,
	}
}

// window returns r(Tᵢ), d(Tᵢ) and b(Tᵢ) for subtask i ≥ 1 from one
// division. Writing i·p = q·e + rem with 0 ≤ rem < e,
//
//	d(Tᵢ) = ⌈i·p/e⌉ = q + [rem ≠ 0],  b(Tᵢ) = [rem ≠ 0],
//
// and since (i−1)·p = (q − ⌊p/e⌋)·e + (rem − p mod e),
//
//	r(Tᵢ) = ⌊(i−1)·p/e⌋ = q − ⌊p/e⌋ − [rem < p mod e].
//
// i·p must fit in int64.
//
//pfair:hotpath
func (pt *Pattern) window(i int64) (r, d int64, b int) {
	ip := i * pt.p
	q := ip / pt.e
	rem := ip - q*pt.e
	r, d = q-pt.pq, q
	if rem < pt.pr {
		r--
	}
	if rem != 0 {
		d++
		b = 1
	}
	return r, d, b
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
	r, _, _ := pt.window(i)
	return r
}

// Deadline returns the pseudo-deadline d(Tᵢ) = ⌈i·p/e⌉ of subtask i ≥ 1.
// Tᵢ must be scheduled in [Release(i), Deadline(i)).
//
//pfair:hotpath
func (pt *Pattern) Deadline(i int64) int64 {
	_, d, _ := pt.window(i)
	return d
}

// BBit returns b(Tᵢ): 1 if Tᵢ's window overlaps Tᵢ₊₁'s window and 0
// otherwise. Consecutive windows overlap by exactly one slot iff
// r(Tᵢ₊₁) = d(Tᵢ) − 1, which holds iff i·p is not a multiple of e.
//
//pfair:hotpath
func (pt *Pattern) BBit(i int64) int {
	_, _, b := pt.window(i)
	return b
}

// GroupDeadline returns D(Tᵢ), the time by which a cascade of forced
// allocations starting at Tᵢ must end: the earliest t ≥ d(Tᵢ) such that for
// some k ≥ i either (t = d(Tₖ) ∧ b(Tₖ) = 0) or (t+1 = d(Tₖ) ∧ |w(Tₖ)| = 3).
//
// Group deadlines only matter for heavy tasks (weight ≥ 1/2, whose windows
// have length two or three); for light tasks PD² defines D(Tᵢ) = 0.
//
//pfair:hotpath
func (pt *Pattern) GroupDeadline(i int64) int64 {
	if !pt.heavy {
		return 0
	}
	return pt.groupAfter(pt.Deadline(i))
}

// groupAfter returns the group deadline of a heavy task's subtask whose
// pseudo-deadline is d, by the closed form: the group deadlines of a heavy
// task of weight e/p are exactly the subtask deadlines of the
// complementary task of weight (p−e)/p, so
//
//	D(Tᵢ) = ⌈k·p/(p−e)⌉ for the smallest k with that value ≥ d(Tᵢ),
//	i.e. k = ⌈d(Tᵢ)·(p−e)/p⌉.
//
// Intuitively, the complement's subtasks mark the slots the cascade must
// leave free. Weight-1 tasks have no complement and D(Tᵢ) = d(Tᵢ). The
// iterative walk (groupDeadlineSlow) is the ground truth; the tests check
// the two agree.
//
//pfair:hotpath
func (pt *Pattern) groupAfter(d int64) int64 {
	comp := pt.p - pt.e
	if comp == 0 {
		return d // weight 1: every b-bit is 0
	}
	k := rational.CeilDiv(d*comp, pt.p)
	return rational.CeilDiv(k*pt.p, comp)
}

// groupDeadlineSlow walks the subtask sequence to apply the definition
// directly. For a heavy task every window has length 2 or 3, and a cascade
// ends within one period, so the walk terminates within e+1 steps.
func (pt *Pattern) groupDeadlineSlow(i int64) int64 {
	di := pt.Deadline(i)
	for k := i; ; k++ {
		if pt.Deadline(k)-pt.Release(k) == 3 && pt.Deadline(k)-1 >= di {
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
