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
// they live here. The release pattern lives with the scheduler: a
// core.ReleaseModel (nil for periodic, core.SporadicModel, or any IS
// model) given at join time.
package task

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"pfair/internal/rational"
)

// Task is a recurrent real-time task. Tasks are immutable once created;
// schedulers keep their own mutable per-task state.
type Task struct {
	// Name identifies the task in traces and error messages.
	Name string
	// Cost is the worst-case execution cost e per job, in time units.
	Cost int64
	// Period is the (exact or minimum) separation p between job releases.
	Period int64
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
// name for determinism. It is the set permuted by OrderByPeriodDecreasing.
func (s Set) SortByPeriodDecreasing() Set {
	var obuf [maxStackSet]int32
	c := make(Set, 0, len(s))
	for _, i := range s.OrderByPeriodDecreasing(obuf[:0]) {
		c = append(c, s[i])
	}
	return c
}

// maxStackSet is the largest set whose period order is computed in stack
// buffers: the paper's task sets have at most 1000 tasks. append moves a
// larger set's buffers to the heap.
const maxStackSet = 1024

// OrderByPeriodDecreasing appends to order the indices of s's tasks by
// decreasing period, ties broken by strings.Compare on the names and then
// by index, and returns the extended slice. The order is that of a stable
// sort by (period desc, name); on a valid set, whose names are unique
// (Set.Validate), the index never decides.
//
// It is decided on integers. A counting pass groups the tasks by their
// period's rank among the set's distinct periods, the largest first.
// Within a group each task has one uint64 key: its name's first 8 bytes
// read as a big-endian integer, a shorter name padded with zero bytes,
// cut to the bits in which the set's names differ, with the index below
// them. Padding, and dropping low bits that do not fit beside the index,
// keep the key order a coarsening of the name order, so one sort of a
// group's keys is its order wherever two keys differ above the index.
// Only runs that tie there (names that share their first 8 bytes or
// differ only in trailing NULs, or bits dropped) are then sorted with
// strings.Compare. The Figure 3 sets (names T0…T499, six periods) form
// no run.
func (s Set) OrderByPeriodDecreasing(order []int32) []int32 {
	n := len(s)
	if n == 0 {
		return order
	}
	var pbuf, kbuf [maxStackSet]uint64
	var cbuf [maxStackSet + 1]int32
	periods, keys := pbuf[:0], kbuf[:0]
	for _, t := range s {
		periods = append(periods, uint64(t.Period))
		keys = append(keys, namePrefix(t.Name))
	}
	slices.Sort(periods)
	distinct := slices.Compact(periods)
	d := len(distinct)
	// Until the tasks are placed, keys[i] holds task i's name bits above
	// its rank, which fits in the index's bits because d ≤ n.
	ib := bits.Len(uint(n - 1))
	low := uint64(1)<<ib - 1
	sh, width := span(keys, 64-ib)
	start := slices.Grow(cbuf[:0], d+1)[:d+1]
	for i, t := range s {
		at, _ := slices.BinarySearch(distinct, uint64(t.Period))
		r := d - 1 - at
		keys[i] = (keys[i]>>sh&(1<<width-1))<<ib | uint64(r)
		start[r+1]++
	}
	for r := 1; r < d; r++ {
		start[r] += start[r-1]
	}
	// Place each task in its rank's group, in index order; start[r] ends
	// as the end of group r. periods' storage is free once ranked.
	placed := periods[:n]
	for i, k := range keys {
		r := k & low
		placed[start[r]] = k&^low | uint64(i)
		start[r]++
	}
	from := 0
	for _, to := range start[:d] {
		group := placed[from:to]
		slices.Sort(group)
		for i := 0; i < len(group); {
			j := i + 1
			for j < len(group) && group[j]>>ib == group[i]>>ib {
				j++
			}
			if j-i > 1 {
				slices.SortFunc(group[i:j], func(a, b uint64) int {
					return cmp.Or(strings.Compare(s[a&low].Name, s[b&low].Name), cmp.Compare(a, b))
				})
			}
			i = j
		}
		from = int(to)
	}
	for _, k := range placed {
		order = append(order, int32(k&low))
	}
	return order
}

// span returns the shift and width of the bits in which xs differ, the
// width capped at limit by dropping low bits: x>>sh&(1<<width−1) orders
// xs as they are ordered, up to ties.
func span(xs []uint64, limit int) (sh, width int) {
	diff := uint64(0)
	for _, x := range xs {
		diff |= x ^ xs[0]
	}
	hi := bits.Len64(diff)
	sh = max(min(bits.TrailingZeros64(diff), hi), hi-limit)
	return sh, hi - sh
}

// namePrefix returns name's first 8 bytes as a big-endian integer, a
// shorter name padded with zero bytes.
func namePrefix(name string) uint64 {
	var p uint64
	for i := range min(len(name), 8) {
		p |= uint64(name[i]) << (56 - 8*i)
	}
	return p
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
