// Package task defines the real-time task model shared by every scheduler
// in this repository.
//
// A task is a recurring activity characterized by an integer execution cost
// e and an integer period p (both in the same time unit: quanta/slots for
// the Pfair schedulers, microseconds for the overhead experiments). Its
// weight — called utilization in the partitioning literature — is the
// rational e/p. The paper's comparison needs three recurrence flavours:
//
//   - Periodic: jobs released exactly p apart (synchronous systems release
//     the first job at time 0).
//   - Sporadic: p is a minimum, not exact, separation between releases.
//   - Intra-sporadic (IS): sporadic separation applies between consecutive
//     subtasks within a job, generalizing the sporadic model (Section 2).
//
// Only the release pattern differs; cost, period, and weight are common, so
// they live here and the pattern-specific behaviour lives with each
// scheduler.
package task

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"pfair/internal/rational"
)

// Kind identifies a task's release pattern.
type Kind int

const (
	// Periodic tasks release jobs exactly Period apart.
	Periodic Kind = iota
	// Sporadic tasks release jobs at least Period apart.
	Sporadic
	// IntraSporadic tasks allow sporadic separation between subtasks
	// within a job (the IS model of Section 2).
	IntraSporadic
)

func (k Kind) String() string {
	switch k {
	case Periodic:
		return "periodic"
	case Sporadic:
		return "sporadic"
	case IntraSporadic:
		return "intra-sporadic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Task is a recurrent real-time task. Tasks are immutable once created;
// schedulers keep their own mutable per-task state.
type Task struct {
	// Name identifies the task in traces and error messages.
	Name string
	// Cost is the worst-case execution cost e per job, in time units.
	Cost int64
	// Period is the (exact or minimum) separation p between job releases.
	Period int64
	// Kind is the release pattern; the zero value is Periodic.
	Kind Kind
	// Critical marks tasks that must keep their full rate under overload
	// reweighting (Section 5.4). Purely advisory metadata.
	Critical bool
}

// New returns a periodic task with the given name, cost, and period, or
// an error unless 0 < cost ≤ period.
func New(name string, cost, period int64) (*Task, error) {
	t := &Task{Name: name, Cost: cost, Period: period}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNew is New for statically known parameters (tests, examples,
// tables); it panics on invalid ones.
func MustNew(name string, cost, period int64) *Task {
	t, err := New(name, cost, period)
	if err != nil {
		//pfair:allowpanic MustNew's documented contract: parameters are compile-time constants
		panic(err)
	}
	return t
}

// Validate checks the task's parameters.
func (t *Task) Validate() error {
	if t.Cost <= 0 {
		return fmt.Errorf("task %s: cost %d must be positive", t.Name, t.Cost)
	}
	if t.Period < t.Cost {
		return fmt.Errorf("task %s: period %d smaller than cost %d (weight > 1)", t.Name, t.Period, t.Cost)
	}
	return nil
}

// Weight returns the task's exact weight (utilization) e/p.
func (t *Task) Weight() rational.Rat {
	return rational.New(t.Cost, t.Period)
}

// Utilization returns the weight as a float64 for reporting.
//
//pfair:allowfloat reporting bridge; scheduling code compares Weight() rationals
func (t *Task) Utilization() float64 {
	return float64(t.Cost) / float64(t.Period)
}

// Heavy reports whether wt(T) ≥ 1/2. The paper calls a task light if its
// weight is < 1/2 and heavy otherwise; heavy tasks are the ones with
// length-two windows that make the PD² group-deadline tie-break necessary.
func (t *Task) Heavy() bool {
	return !t.Weight().Less(rational.New(1, 2))
}

// String renders the task as "name(e/p)".
func (t *Task) String() string {
	return fmt.Sprintf("%s(%d/%d)", t.Name, t.Cost, t.Period)
}

// Set is an ordered collection of tasks.
type Set []*Task

// TotalWeight returns the exact sum of the tasks' weights, the left side of
// the feasibility condition Σ wt(T) ≤ M (Equation (2)). The result is an
// arbitrary-precision accumulator because the reduced denominator of the
// sum can exceed int64 for large sets with co-prime periods.
func (s Set) TotalWeight() *rational.Acc {
	total := rational.NewAcc()
	for _, t := range s {
		total.Add(t.Weight())
	}
	return total
}

// TotalUtilization returns the float64 total utilization for reporting.
//
//pfair:allowfloat reporting bridge; feasibility tests use TotalWeight() exactly
func (s Set) TotalUtilization() float64 {
	u := 0.0
	for _, t := range s {
		u += t.Utilization()
	}
	return u
}

// Hyperperiod returns the least common multiple of the tasks' periods. A
// synchronous periodic schedule repeats with this period, so simulating one
// hyperperiod suffices to verify it. It panics on int64 overflow; callers
// that must degrade gracefully (CLIs sizing a default horizon from user
// input) should use HyperperiodOK.
func (s Set) Hyperperiod() int64 {
	l := int64(1)
	for _, t := range s {
		l = rational.LCM(l, t.Period)
	}
	return l
}

// HyperperiodOK is Hyperperiod returning ok=false instead of panicking
// when the LCM of the periods overflows int64 (easy to hit with a handful
// of large coprime periods).
func (s Set) HyperperiodOK() (int64, bool) {
	l := int64(1)
	for _, t := range s {
		var ok bool
		if l, ok = rational.LCMOK(l, t.Period); !ok {
			return 0, false
		}
	}
	return l, true
}

// Feasible reports whether the set satisfies Equation (2) on m processors:
// Σ wt(T) ≤ m. For periodic, sporadic, and IS task systems this is exact
// feasibility under global scheduling with migration.
func (s Set) Feasible(m int) bool {
	return s.TotalWeight().CmpInt(int64(m)) <= 0
}

// MinProcessors returns the smallest m for which the set is feasible under
// an optimal global scheduler: ⌈Σ wt(T)⌉.
func (s Set) MinProcessors() int {
	return int(s.TotalWeight().Ceil())
}

// Validate checks every task and that names are unique.
func (s Set) Validate() error {
	seen := make(map[string]bool, len(s))
	for _, t := range s {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("duplicate task name %q", t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// Clone returns a shallow copy of the set (the tasks themselves are
// immutable and shared).
func (s Set) Clone() Set {
	return append(Set(nil), s...)
}

// SortByPeriodDecreasing returns a copy sorted by decreasing period, the
// order in which Section 4 requires tasks to be partitioned so that each
// task's max-D(U) inflation term is known when it is placed. Ties break by
// name for determinism. (period desc, name asc) is a total order only
// because names are unique, which Set.Validate enforces; that is what lets
// an unstable sort give the same result as a stable one.
func (s Set) SortByPeriodDecreasing() Set {
	c := s.Clone()
	slices.SortFunc(c, func(a, b *Task) int {
		if d := cmp.Compare(b.Period, a.Period); d != 0 {
			return d
		}
		return strings.Compare(a.Name, b.Name)
	})
	return c
}

// SortByUtilizationDecreasing returns a copy sorted by decreasing
// utilization (the order used by the FFD and BFD heuristics). Ties break by
// name for determinism.
func (s Set) SortByUtilizationDecreasing() Set {
	c := s.Clone()
	slices.SortStableFunc(c, func(a, b *Task) int {
		if w := b.Weight().Cmp(a.Weight()); w != 0 {
			return w
		}
		return strings.Compare(a.Name, b.Name)
	})
	return c
}
