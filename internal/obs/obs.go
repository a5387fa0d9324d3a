// Package obs is the observability layer shared by every scheduler in
// this repository: a slot-level trace recorder, a metrics registry, and
// exporters (Chrome trace-event JSON for Perfetto, Prometheus text, and a
// human-readable timeline).
//
// The paper's entire argument rests on measuring scheduling behaviour —
// migrations, preemptions, lag excursions, quantum overheads — so the
// instrumented path must not distort the thing it measures. Two design
// rules follow:
//
//   - Recording is allocation-free. The recorder is a preallocated ring
//     buffer of fixed-size value events; emitting one is two stores and
//     an increment. Counters, gauges, and histogram buckets are
//     preallocated at registration; updating one is an integer add.
//     BenchmarkStepAllocsObserved pins 0 allocs/op with a live recorder
//     and metrics attached, and the hotpath analyzer checks the static
//     side.
//   - Recording is nil-guarded, not interface-dispatched. Schedulers
//     hold a concrete *Recorder (nil when unobserved) and wrap every
//     emission in `if rec != nil`. A nil interface would still cost an
//     itab check plus preclude inlining, and a no-op implementation
//     would still evaluate event arguments; the nil pointer guard makes
//     the uninstrumented path a single predictable branch. The hotpath
//     analyzer enforces the guard (see internal/lint).
//
// Identity is by small integer task IDs assigned at registration
// (cold path); names are resolved only at export time.
package obs

// EventKind discriminates trace events. The zero value is EvNone so an
// unwritten ring slot is distinguishable from any real event.
type EventKind uint8

const (
	// EvNone marks an empty ring slot; never emitted.
	EvNone EventKind = iota
	// EvJoin: a task was admitted. A = cost, B = period.
	EvJoin
	// EvLeave: a task departed. A = total quanta it was allocated.
	EvLeave
	// EvRelease: subtask A of Task became eligible (entered the ready
	// queue).
	EvRelease
	// EvSchedule: subtask A of Task received the quantum of slot Slot on
	// processor Proc.
	EvSchedule
	// EvIdle: processor Proc received no work in slot Slot.
	EvIdle
	// EvPreempt: Task ran in slot Slot−1, has an in-progress job, and was
	// not selected for slot Slot. A = subtask, Proc = processor it lost.
	EvPreempt
	// EvMigrate: Task was placed on processor Proc having last run on
	// processor A. B = subtask.
	EvMigrate
	// EvMiss: subtask A of Task was detected past its deadline B in slot
	// Slot (it runs tardily in Slot, or never — see core.Miss).
	EvMiss
	// EvTieBreakB: a deadline tie at deadline B was decided by the PD²
	// b-bit comparison; Task won against task id A.
	EvTieBreakB
	// EvTieBreakGroup: a deadline tie at deadline B was decided by the
	// group-deadline comparison; Task won against task id A.
	EvTieBreakGroup
	// EvReweight: Task's weight change took effect at Slot. A = the new
	// cost, B = the new period. Emitted by the policy at the boundary
	// the change lands on; for policies that model reweighting
	// as leave-and-join under a fresh id (core), it carries the new
	// incarnation's id and follows its EvJoin at the same slot.
	EvReweight

	numEventKinds = iota
)

var eventKindNames = [numEventKinds]string{
	EvNone:          "none",
	EvJoin:          "join",
	EvLeave:         "leave",
	EvRelease:       "release",
	EvSchedule:      "schedule",
	EvIdle:          "idle",
	EvPreempt:       "preempt",
	EvMigrate:       "migrate",
	EvMiss:          "deadline-miss",
	EvTieBreakB:     "tiebreak-bbit",
	EvTieBreakGroup: "tiebreak-group",
	EvReweight:      "reweight",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Event is one fixed-size trace record. Slot is the scheduling slot (or
// tick, for the variable-quantum and event-driven simulators); Task and
// Proc are −1 when not applicable; A and B carry kind-specific payload
// documented on each EventKind.
type Event struct {
	Slot int64
	A, B int64
	Task int32
	Proc int32
	Kind EventKind
}

// DefaultRingCapacity is the ring size NewRecorder uses when given a
// non-positive capacity: large enough for several hyperperiods of a
// typical task set, small enough (~2.5 MiB) to preallocate casually.
const DefaultRingCapacity = 1 << 16

// Recorder is a preallocated ring buffer of trace events. When the ring
// wraps, the oldest events are overwritten: a recorder sized below the
// run length keeps the most recent window, which is what post-mortem
// debugging wants. Emit never allocates and never fails.
//
// A Recorder is not safe for concurrent use; each scheduler instance
// owns its own (the parallel experiment harness runs one scheduler —
// hence one recorder — per goroutine).
type Recorder struct {
	buf  []Event
	mask uint64
	n    uint64 // total events ever emitted

	names []string // task id → name, registration is cold-path

	// acct, when attached, consumes every event in-line before it lands
	// in the ring, so aggregates cover the whole run even after the ring
	// wraps. Concrete pointer, nil-guarded, per the package rules.
	acct *Accounting
}

// NewRecorder returns a recorder whose ring holds at least capacity
// events (rounded up to a power of two so Emit can mask instead of
// dividing). A non-positive capacity selects DefaultRingCapacity.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Recorder{buf: make([]Event, size), mask: uint64(size - 1)}
}

// Emit appends e to the ring, overwriting the oldest event once the ring
// is full. It is the only recorder method on the schedulers' hot path.
//
//pfair:hotpath
func (r *Recorder) Emit(e Event) {
	r.buf[r.n&r.mask] = e
	r.n++
	if a := r.acct; a != nil {
		a.Apply(e)
	}
}

// SetAccounting attaches (or, with nil, detaches) a per-task accounting
// / table: every subsequent Emit forwards its event to acct.Apply, and
// task registrations forward their names. Names already registered are
// copied over; events already emitted are not replayed (attach before
// the run — the table aggregates from attachment on). Cold path.
func (r *Recorder) SetAccounting(acct *Accounting) {
	r.acct = acct
	if acct == nil {
		return
	}
	for id, name := range r.names {
		if name != "" {
			acct.SetName(int32(id), name)
		}
	}
}

// Accounting returns the attached accounting table, or nil.
//
//pfair:keep test seam: core's accounting tests read the per-task table through it
func (r *Recorder) Accounting() *Accounting { return r.acct }

// RegisterTask associates a task id (assigned by the scheduler) with a
// display name, reporting whether the id was previously unknown (so
// callers can emit a join event exactly once per recorder and task).
// Registration may happen at any time before export and is idempotent; it
// is never on the hot path.
func (r *Recorder) RegisterTask(id int32, name string) bool {
	if id < 0 {
		return false
	}
	fresh := int(id) >= len(r.names) || r.names[id] == ""
	for int(id) >= len(r.names) {
		r.names = append(r.names, "")
	}
	r.names[id] = name
	if a := r.acct; a != nil {
		a.SetName(id, name)
	}
	return fresh
}

// TaskName resolves a task id to its registered name, or a placeholder
// for ids never registered.
func (r *Recorder) TaskName(id int32) string {
	if id >= 0 && int(id) < len(r.names) && r.names[id] != "" {
		return r.names[id]
	}
	if id < 0 {
		return ""
	}
	return "task#" + itoa(int64(id))
}

// TaskIDs returns every registered task id in ascending order.
//
//pfair:keep test seam: obs and core tests map task names to recorder ids
func (r *Recorder) TaskIDs() []int32 {
	ids := make([]int32, 0, len(r.names))
	for id := range r.names {
		ids = append(ids, int32(id))
	}
	return ids
}

// Total returns the number of events ever emitted, including ones the
// ring has since overwritten.
func (r *Recorder) Total() uint64 { return r.n }

// Dropped returns how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r.n <= uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// Events returns the retained events, oldest first, as a fresh slice.
func (r *Recorder) Events() []Event {
	if r.n <= uint64(len(r.buf)) {
		out := make([]Event, r.n)
		copy(out, r.buf[:r.n])
		return out
	}
	out := make([]Event, len(r.buf))
	start := r.n & r.mask // oldest retained event
	k := copy(out, r.buf[start:])
	copy(out[k:], r.buf[:start])
	return out
}

// itoa is a tiny allocation-conscious int formatter for cold paths that
// must not import fmt (keeping obs usable from hotpath-adjacent code
// without dragging in boxing).
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [21]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
