package verify

import (
	"fmt"

	"pfair/internal/core"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// referenceCheck is the map-and-rational Check the dense-index one
// replaced, kept as the differential oracle: Check must return the same
// error strings, in the same order, on every input. Its maps are keyed by
// task id, set[id] being the task with that id, as Check reads it.
func referenceCheck(set task.Set, slots []Slot, opts Options) []error {
	var errs []error
	fail := func(format string, args ...any) {
		if len(errs) < maxErrors {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}

	pats := make(map[int]*core.Pattern, len(set))
	for id, t := range set {
		pats[id] = core.NewPattern(t.Cost, t.Period)
	}
	offset := func(id int, i int64) int64 {
		if id >= len(opts.Offsets) || opts.Offsets[id] == nil {
			return 0
		}
		return opts.Offsets[id](i)
	}

	next := make(map[int]int64, len(set))     // expected next subtask
	seqBroken := make(map[int]bool, len(set)) // sequence error already reported
	alloc := make(map[int]int64, len(set))
	for id := range set {
		next[id] = 1
	}
	one := rational.One()

	// lagCheck validates Equation (1) at every slot boundary u in
	// [from, to]: lag(T, u) is the lag after slot u−1, computed from the
	// allocations seen so far. Calling it for the gaps between recorded
	// slots (and after the last one, up to the horizon) means idle slots
	// that were never delivered to the Recorder still get their lag
	// checked — a trace with gaps cannot hide a starved task.
	lagCheck := func(from, to int64) {
		if opts.SkipLag {
			return
		}
		for u := from; u <= to && len(errs) < maxErrors; u++ {
			// Iterate the declared task order so the first maxErrors
			// reported failures are deterministic.
			for id, t := range set {
				lag := pats[id].Lag(u, alloc[id])
				if !lag.Less(one) || !one.Neg().Less(lag) {
					fail("slot %d: task %s lag %v outside (-1, 1)", u-1, t.Name, lag)
				}
			}
		}
	}

	prevTime := int64(-1)
	for _, s := range slots {
		if s.Time <= prevTime {
			fail("slot times not strictly increasing at %d", s.Time)
		} else {
			// Boundaries inside the idle gap (prevTime, s.Time).
			lagCheck(prevTime+2, s.Time)
		}
		prevTime = s.Time
		if opts.Processors > 0 && len(s.Assigned) > opts.Processors {
			fail("slot %d: %d allocations on %d processors", s.Time, len(s.Assigned), opts.Processors)
		}
		procs := map[int]bool{}
		tasks := map[int]bool{}
		for _, a := range s.Assigned {
			if procs[a.Proc] {
				fail("slot %d: processor %d assigned twice", s.Time, a.Proc)
			}
			procs[a.Proc] = true
			if opts.Processors > 0 && (a.Proc < 0 || a.Proc >= opts.Processors) {
				fail("slot %d: processor %d out of range", s.Time, a.Proc)
			}
			pat, ok := pats[a.Task]
			if !ok {
				fail("slot %d: unknown task id %d", s.Time, a.Task)
				continue
			}
			name := set[a.Task].Name
			if tasks[a.Task] {
				fail("slot %d: task %s scheduled in parallel with itself", s.Time, name)
			}
			tasks[a.Task] = true

			// On a mismatch, report once and keep counting allocations
			// (next advances by one per quantum received, not to the
			// recorded index): resynchronizing to a.Subtask+1 would turn
			// one skipped subtask into a spurious error on every later
			// slot and bury the root cause.
			if want := next[a.Task]; a.Subtask != want && !seqBroken[a.Task] {
				seqBroken[a.Task] = true
				fail("slot %d: task %s ran subtask %d, expected %d (suppressing later sequence errors for this task)",
					s.Time, name, a.Subtask, want)
			}
			next[a.Task]++
			alloc[a.Task]++

			if !opts.AllowTardy {
				off := offset(a.Task, a.Subtask)
				r := off + pat.Release(a.Subtask)
				d := off + pat.Deadline(a.Subtask)
				if s.Time < r || s.Time >= d {
					fail("slot %d: subtask %s/%d outside window [%d,%d)", s.Time, name, a.Subtask, r, d)
				}
			}
		}
		// Boundary after this slot's allocations.
		lagCheck(s.Time+1, s.Time+1)
	}
	// Trailing idle slots up to the horizon.
	if opts.Horizon > prevTime+1 {
		lagCheck(prevTime+2, opts.Horizon)
	}

	if !opts.AllowTardy && opts.Horizon > 0 {
		for id, t := range set {
			pat := pats[id]
			i := next[id]
			if off := offset(id, i); off+pat.Deadline(i) <= opts.Horizon {
				fail("subtask %s/%d (deadline %d) never scheduled before horizon %d",
					t.Name, i, off+pat.Deadline(i), opts.Horizon)
			}
		}
	}
	return errs
}
