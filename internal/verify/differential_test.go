package verify

import (
	"testing"

	"pfair/internal/core"
	"pfair/internal/task"
)

// sameErrors fails t unless Check and referenceCheck report the same
// error strings in the same order.
func sameErrors(t *testing.T, name string, set task.Set, slots []Slot, opts Options) {
	t.Helper()
	got := Check(set, slots, opts)
	want := referenceCheck(set, slots, opts)
	if len(got) != len(want) {
		t.Errorf("%s: Check reported %d errors, the reference %d\n got: %v\nwant: %v", name, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i].Error() != want[i].Error() {
			t.Errorf("%s: error %d differs\n got: %s\nwant: %s", name, i, got[i], want[i])
			return
		}
	}
}

// optionVariants returns opts with each combination of the lag and
// tardiness switches.
func optionVariants(opts Options) []Options {
	var out []Options
	for _, skip := range []bool{false, true} {
		for _, tardy := range []bool{false, true} {
			o := opts
			o.SkipLag, o.AllowTardy = skip, tardy
			out = append(out, o)
		}
	}
	return out
}

func at(proc, id int, sub int64) core.Assignment {
	return core.Assignment{Proc: proc, Task: id, Subtask: sub}
}

// Ids of corruptionBase's tasks, and two no task has.
const (
	idA, idB, idC = 0, 1, 2
	ghost         = 3 // len(set)
	phantom       = -1
)

// TestCheckMatchesReference runs the hand-built differential corpus:
// every corruption of TestCorruptionsDetected and the inputs where
// map-keyed and slice-indexed bookkeeping could part ways.
func TestCheckMatchesReference(t *testing.T) {
	set, base, opts := corruptionBase(t)
	for _, o := range optionVariants(opts) {
		sameErrors(t, "valid trace", set, base, o)
		for _, c := range corruptions {
			sameErrors(t, c.name, set, c.mutate(cloneSlots(base)), o)
		}
	}

	// A set longer than the trace's ids: the extra tasks never run.
	long := task.Set{set[0], set[1], set[2], task.MustNew("A", 1, 2), task.MustNew("B", 1, 3)}
	for _, o := range optionVariants(opts) {
		sameErrors(t, "unscheduled ids", long, base, o)
	}

	// An unknown id is reported once per assignment, and nothing else
	// is checked for it.
	ghosts := cloneSlots(base)
	ghosts[3].Assigned = append(ghosts[3].Assigned, at(7, ghost, 1), at(8, ghost, 1))
	ghosts[4].Assigned = append(ghosts[4].Assigned, at(7, ghost, 2), at(7, phantom, 1))
	for _, procs := range []int{0, 2, 9} {
		o := opts
		o.Processors = procs
		sameErrors(t, "unknown tasks", set, ghosts, o)
		sameErrors(t, "unknown tasks, empty set", nil, ghosts, o)
	}

	// Processors that are negative or past M, repeated within a slot,
	// with capacity checks off (Processors 0) and on.
	odd := []Slot{
		{Time: 0, Assigned: []core.Assignment{at(-1, idA, 1), at(-1, idB, 1)}},
		{Time: 1, Assigned: []core.Assignment{at(2, idC, 1), at(2, idA, 2), at(-3, idB, 2)}},
		{Time: 2, Assigned: []core.Assignment{at(0, idA, 3), at(-1, idC, 2), at(1, idB, 3), at(1, idC, 3)}},
		{Time: 3, Assigned: []core.Assignment{at(9, idA, 4), at(-1, idB, 4)}},
	}
	for _, procs := range []int{-1, 0, 1, 2, 3} {
		for _, o := range optionVariants(Options{Processors: procs, Horizon: 6}) {
			sameErrors(t, "odd processors", set, odd, o)
		}
	}

	// Times that repeat or go backwards: per-slot duplicate checks must
	// keep the two slots apart even when their times are equal.
	back := []Slot{
		{Time: 0, Assigned: []core.Assignment{at(0, idA, 1), at(1, idC, 1)}},
		{Time: 0, Assigned: []core.Assignment{at(0, idA, 2), at(1, idB, 1)}},
		{Time: 5, Assigned: []core.Assignment{at(0, idC, 2)}},
		{Time: 3, Assigned: []core.Assignment{at(0, idA, 3), at(1, idC, 3)}},
		{Time: 3, Assigned: []core.Assignment{at(1, idA, 4)}},
		{Time: 8},
	}
	for _, o := range optionVariants(Options{Processors: 2, Horizon: 12}) {
		sameErrors(t, "non-increasing times", set, back, o)
	}

	// Offsets: nil as a whole, an empty slice, a nil entry, entries
	// missing past the end, and more entries than tasks.
	shift := func(i int64) int64 { return i / 2 }
	for _, offs := range [][]func(int64) int64{
		nil,
		{},
		{nil, shift},
		{nil, nil, shift},
		{shift, shift, shift, shift, shift},
	} {
		o := opts
		o.Offsets = offs
		for _, v := range optionVariants(o) {
			sameErrors(t, "offsets", set, base, v)
			sameErrors(t, "offsets, unscheduled ids", long, base, v)
		}
	}

	// The maxErrors flood: starvation over a long horizon, and a trace
	// whose per-slot errors cross the cap in the middle of a slot.
	starved := task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 1, 2)}
	sameErrors(t, "starvation flood", starved, nil, Options{Processors: 1, Horizon: 100000})
	var bad []Slot
	for i := int64(0); i < 400; i++ {
		bad = append(bad, Slot{Time: i / 2, Assigned: []core.Assignment{at(5, ghost, i), at(5, ghost, i)}})
	}
	for _, o := range optionVariants(Options{Processors: 2, Horizon: 300}) {
		sameErrors(t, "per-slot flood", starved, bad, o)
	}
}
