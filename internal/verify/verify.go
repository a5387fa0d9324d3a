// Package verify independently validates recorded multiprocessor
// schedules against the definitions of Section 2. It shares no code with
// the scheduler's own bookkeeping: it recomputes windows, allocations,
// and lags from the raw (slot, processor, task id, subtask) trace, so a
// bug in the scheduler's internal state cannot hide itself.
//
// Its users are its own cross-validation tests (PD², PD, PF and ERfair
// schedules), the fuzz oracles (internal/fuzz checks every Pfair kind's
// trace here), the admission-plane equivalence test
// (internal/engine/dynequiv_test.go, which records through Recorder), and
// the perfbench verify.check_us probe.
//
// Checks:
//
//   - capacity: at most M allocations per slot, one task per processor;
//   - no intra-slot parallelism: a task at most once per slot;
//   - known tasks: every task id indexes the set;
//   - sequence: each task's subtasks appear in order 1, 2, 3, … with no
//     gaps or repeats;
//   - windows: every subtask runs inside [r(Tᵢ), d(Tᵢ)) shifted by its
//     offset (unless tardiness is explicitly allowed); a subtask index
//     below 1 has no window and is reported as such;
//   - Pfairness: −1 < lag(T, t) < 1 after every slot in [0, Horizon),
//     including idle slots missing from the trace (periodic tasks);
//   - completion: no subtask with a deadline inside the horizon is left
//     unscheduled.
package verify

import (
	"fmt"

	"pfair/internal/core"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// Slot is one slot of a recorded schedule.
type Slot struct {
	Time     int64
	Assigned []core.Assignment
}

// Recorder accumulates a schedule in the OnSlot callback shape. The zero
// value is ready to use.
type Recorder struct {
	Slots []Slot
	// chunk is shared backing storage for the slots' Assigned copies.
	// Each copy is a full slice expression over its own range, so an
	// append to one slot's Assigned reallocates instead of writing into
	// the next slot's data.
	chunk []core.Assignment
}

// Growth policy: the first chunk (in assignments) and the first Slots
// capacity are small so that short fuzz cases stay cheap; each later
// chunk doubles up to maxChunk, and Slots doubles.
const (
	minChunk = 256
	maxChunk = 8192
	minSlots = 256
)

// Record implements the core.Scheduler OnSlot signature.
//
//pfair:allowalloc copies every slot into shared chunks, allocating per chunk of up to a few thousand assignments and when Slots doubles; perfbench's fuzz workload records every slot
func (r *Recorder) Record(t int64, assigned []core.Assignment) {
	if r.chunk == nil || cap(r.chunk)-len(r.chunk) < len(assigned) {
		size := min(max(2*cap(r.chunk), minChunk), maxChunk)
		r.chunk = make([]core.Assignment, 0, max(size, len(assigned)))
	}
	start := len(r.chunk)
	r.chunk = append(r.chunk, assigned...)
	end := len(r.chunk)
	if len(r.Slots) == cap(r.Slots) {
		grown := make([]Slot, len(r.Slots), max(2*cap(r.Slots), minSlots))
		copy(grown, r.Slots)
		r.Slots = grown
	}
	r.Slots = append(r.Slots, Slot{Time: t, Assigned: r.chunk[start:end:end]})
}

// Reset empties the recorder for another run and keeps its storage: the
// Slots array and the newest chunk are reused, so a run that fits in them
// records without allocating. Slots read before the call are overwritten
// by later Records.
func (r *Recorder) Reset() {
	clear(r.Slots) // drop references to older chunks
	r.Slots = r.Slots[:0]
	r.chunk = r.chunk[:0]
}

// Options configures which checks apply.
type Options struct {
	// Processors is M; capacity checks use it.
	Processors int
	// Horizon is the number of simulated slots; completion checks use it.
	Horizon int64
	// AllowTardy disables the window and completion checks (overload
	// traces legitimately run subtasks late).
	AllowTardy bool
	// SkipLag disables the Pfair lag check (use for ERfair and IS
	// schedules, whose lag bounds differ from Equation (1)).
	SkipLag bool
	// Offsets optionally gives each task's per-subtask window shift
	// (join time + IS delay), by task id. A missing or nil entry means
	// synchronous periodic (offset 0).
	Offsets []func(i int64) int64
}

// maxErrors caps the number of violations Check collects; a single root
// cause (e.g. a starved task failing the lag bound on every slot of a long
// horizon) would otherwise flood the report.
const maxErrors = 1024

// Check validates the trace of the given task set and returns every
// violation found (nil means the schedule is valid), truncating after
// maxErrors entries.
//
// set[id] is the task with core id id: pass the scheduler's admitted
// tasks in admission order. An id outside [0, len(set)) is an unknown
// task.
func Check(set task.Set, slots []Slot, opts Options) []error {
	var errs []error
	fail := func(format string, args ...any) {
		if len(errs) < maxErrors {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}

	n := len(set)
	pats := make([]*core.Pattern, n)
	for k, t := range set {
		pats[k] = core.NewPattern(t.Cost, t.Period)
	}
	offset := func(k int, i int64) int64 {
		if k >= len(opts.Offsets) || opts.Offsets[k] == nil {
			return 0
		}
		return opts.Offsets[k](i)
	}
	// alloc counts the quanta each task received so far. The subtask a
	// task is expected to run next is always alloc+1: both advance by one
	// per quantum, whatever subtask the trace recorded.
	alloc := make([]int64, n)
	seqBroken := make([]bool, n) // sequence error already reported

	// lagCheck validates Equation (1) at every slot boundary u in
	// [from, to]: lag(T, u) is the lag after slot u−1, computed from the
	// allocations seen so far. Calling it for the gaps between recorded
	// slots (and after the last one, up to the horizon) means idle slots
	// that were never delivered to the Recorder still get their lag
	// checked — a trace with gaps cannot hide a starved task.
	//
	// lag = (e·u − alloc·p)/p, so −1 < lag < 1 iff −p < e·u − alloc·p < p:
	// the numerator Pattern.Lag normalises, compared in int64. The
	// rational is built only to format a failure.
	lagCheck := func(from, to int64) {
		if opts.SkipLag {
			return
		}
		for u := from; u <= to && len(errs) < maxErrors; u++ {
			// Iterate the set in id order so the first maxErrors
			// reported failures are deterministic.
			for k, pat := range pats {
				e, p := pat.Cost(), pat.Period()
				if num := e*u - alloc[k]*p; num >= p || num <= -p {
					fail("slot %d: task %s lag %v outside (-1, 1)", u-1, set[k].Name, rational.New(num, p))
				}
			}
		}
	}

	// Per-slot duplicate detection: seen[x] == pos+1 means x already
	// occurred in slots[pos]. Stamping by position rather than Time keeps
	// slots with repeated times apart. Processors outside
	// [0, opts.Processors) use procOut, made on first need.
	procSeen := make([]int, max(opts.Processors, 0))
	var procOut map[int]int
	taskSeen := make([]int, n)

	prevTime := int64(-1)
	for pos, s := range slots {
		stamp := pos + 1
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
		for _, a := range s.Assigned {
			var twice bool
			if a.Proc >= 0 && a.Proc < len(procSeen) {
				twice = procSeen[a.Proc] == stamp
				procSeen[a.Proc] = stamp
			} else {
				if procOut == nil {
					procOut = map[int]int{}
				}
				twice = procOut[a.Proc] == stamp
				procOut[a.Proc] = stamp
			}
			if twice {
				fail("slot %d: processor %d assigned twice", s.Time, a.Proc)
			}
			if opts.Processors > 0 && (a.Proc < 0 || a.Proc >= opts.Processors) {
				fail("slot %d: processor %d out of range", s.Time, a.Proc)
			}
			k := a.Task
			if k < 0 || k >= n {
				fail("slot %d: unknown task id %d", s.Time, k)
				continue
			}
			if taskSeen[k] == stamp {
				fail("slot %d: task %s scheduled in parallel with itself", s.Time, set[k].Name)
			}
			taskSeen[k] = stamp

			// On a mismatch, report once and keep counting allocations
			// (the expected subtask advances by one per quantum
			// received, not to the recorded index): resynchronizing to
			// a.Subtask+1 would turn one skipped subtask into a spurious
			// error on every later slot and bury the root cause.
			if want := alloc[k] + 1; a.Subtask != want && !seqBroken[k] {
				seqBroken[k] = true
				fail("slot %d: task %s ran subtask %d, expected %d (suppressing later sequence errors for this task)",
					s.Time, set[k].Name, a.Subtask, want)
			}
			alloc[k]++

			if !opts.AllowTardy && a.Subtask < 1 {
				// Windows are defined from subtask 1 on.
				fail("slot %d: subtask %s/%d has no window (subtasks start at 1)", s.Time, set[k].Name, a.Subtask)
			} else if !opts.AllowTardy {
				pat := pats[k]
				off := offset(k, a.Subtask)
				r := off + pat.Release(a.Subtask)
				d := off + pat.Deadline(a.Subtask)
				if s.Time < r || s.Time >= d {
					fail("slot %d: subtask %s/%d outside window [%d,%d)", s.Time, set[k].Name, a.Subtask, r, d)
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
		for k, pat := range pats {
			next := alloc[k] + 1
			if off := offset(k, next); off+pat.Deadline(next) <= opts.Horizon {
				fail("subtask %s/%d (deadline %d) never scheduled before horizon %d",
					set[k].Name, next, off+pat.Deadline(next), opts.Horizon)
			}
		}
	}
	return errs
}
