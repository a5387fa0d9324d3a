package obs

// SchedulerMetrics bundles the fixed set of scheduler-wide instruments
// the Pfair scheduler (internal/core) updates per slot. All instruments
// live in one Registry so a single WritePrometheus or Snapshot call
// exports the whole scheduler while it runs. Per-task
// facts are not kept here: an Accounting attached to the trace recorder
// derives them from the event stream (the pfair_acct_* families).
//
// Handles are preallocated here (cold path); the scheduler's per-slot
// updates are bare integer operations on them.
type SchedulerMetrics struct {
	// Global counters, mirroring core.Stats plus the queue-level detail
	// Stats cannot see.
	Slots           *Counter
	Allocations     *Counter
	ContextSwitches *Counter
	Migrations      *Counter
	Preemptions     *Counter
	Misses          *Counter
	// TieBreakB and TieBreakGroup count slots whose selection boundary —
	// the last selected subtask against the best one left out — was a
	// deadline tie decided by the PD² b-bit or group-deadline rule: how
	// often the tie-breaks that separate PD² from EPDF decide who runs.
	// Each increment pairs with one EvTieBreakB/EvTieBreakGroup event.
	TieBreakB     *Counter
	TieBreakGroup *Counter

	// Joins, Leaves, and Reweights count transactions the admission
	// plane accepted (Plane.Commit), by operation; AdmissionRejects
	// counts the refused ones (Plane.Reject).
	// All are cold-path: they move only when a dynamic operation is
	// submitted, never per slot.
	Joins            *Counter
	Leaves           *Counter
	Reweights        *Counter
	AdmissionRejects *Counter

	// ReadyLen and PendingLen are the queue lengths after the most
	// recent slot.
	ReadyLen   *Gauge
	PendingLen *Gauge

	// TraceTotal and TraceDropped mirror the attached trace recorder's
	// ring occupancy (events ever emitted / events lost to ring wrap),
	// copied in by ObserveRing at exposition time. A wrapped ring means
	// the exported trace is a suffix of the run, and these two series are
	// how a consumer tells.
	TraceTotal   *Gauge
	TraceDropped *Gauge

	// Occupancy distributes busy processors per slot; Tardiness
	// distributes slots-late per deadline miss.
	Occupancy *Histogram
	Tardiness *Histogram

	reg *Registry
}

// occupancyBounds covers 1..16 processors exactly; larger machines fall
// into the overflow bucket.
var occupancyBounds = []int64{0, 1, 2, 4, 8, 16}

// tardinessBounds covers the small tardiness values the paper's
// tardiness experiments report.
var tardinessBounds = []int64{1, 2, 4, 8, 16, 32}

// NewSchedulerMetrics registers the scheduler's instrument set in reg
// and returns the handle block. Passing nil creates a private registry,
// retrievable via Registry().
func NewSchedulerMetrics(reg *Registry) *SchedulerMetrics {
	if reg == nil {
		reg = NewRegistry()
	}
	return &SchedulerMetrics{
		Slots:            reg.Counter("pfair_slots_total", "", "scheduler invocations (one per slot)"),
		Allocations:      reg.Counter("pfair_allocations_total", "", "quanta handed to tasks"),
		ContextSwitches:  reg.Counter("pfair_context_switches_total", "", "slot boundaries where a processor changed task"),
		Migrations:       reg.Counter("pfair_migrations_total", "", "allocations on a different processor than the task's previous one"),
		Preemptions:      reg.Counter("pfair_preemptions_total", "", "tasks descheduled mid-job at a slot boundary"),
		Misses:           reg.Counter("pfair_deadline_misses_total", "", "subtask deadline violations detected"),
		TieBreakB:        reg.Counter("pfair_tiebreak_bbit_total", "", "slot selection boundaries decided by the b-bit rule"),
		TieBreakGroup:    reg.Counter("pfair_tiebreak_group_total", "", "slot selection boundaries decided by the group-deadline rule"),
		Joins:            reg.Counter("pfair_admission_joins_total", "", "task joins accepted by the admission plane"),
		Leaves:           reg.Counter("pfair_admission_leaves_total", "", "task leaves (and finishes) accepted by the admission plane"),
		Reweights:        reg.Counter("pfair_admission_reweights_total", "", "task reweights accepted by the admission plane"),
		AdmissionRejects: reg.Counter("pfair_admission_rejects_total", "", "dynamic-task requests the admission plane refused"),
		ReadyLen:         reg.Gauge("pfair_ready_queue_len", "", "ready-queue length after the last slot"),
		PendingLen:       reg.Gauge("pfair_release_queue_len", "", "release-queue length after the last slot"),
		TraceTotal:       reg.Gauge("pfair_trace_ring_total_events", "", "trace events ever emitted to the attached recorder"),
		TraceDropped:     reg.Gauge("pfair_trace_ring_dropped_events", "", "trace events lost to ring wrap-around (>0 means the trace is a suffix of the run)"),
		Occupancy:        reg.Histogram("pfair_slot_occupancy", "", "busy processors per slot", occupancyBounds),
		Tardiness:        reg.Histogram("pfair_tardiness_slots", "", "slots late per deadline miss", tardinessBounds),
		reg:              reg,
	}
}

// Registry returns the registry holding this block's instruments.
func (m *SchedulerMetrics) Registry() *Registry { return m.reg }

// ObserveRing copies rec's ring occupancy (total emitted, dropped to
// wrap) into the TraceTotal/TraceDropped gauges. Cold path — call before
// exposition; a nil recorder is a no-op.
func (m *SchedulerMetrics) ObserveRing(rec *Recorder) {
	if rec == nil {
		return
	}
	m.TraceTotal.Set(int64(rec.Total()))
	m.TraceDropped.Set(int64(rec.Dropped()))
}
