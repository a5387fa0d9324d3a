package obs

// SchedulerMetrics bundles the fixed set of scheduler-wide instruments
// of the Pfair scheduler (internal/core). All instruments live in one
// Registry so a single WritePrometheus or Snapshot call exports them.
// Per-task facts are not kept here: an Accounting attached to the trace
// recorder derives them from the event stream (the pfair_acct_*
// families).
//
// No slot path writes this block: only Submit's admission counters move
// live. The rest is filled at exposition from facts kept elsewhere
// (core.Scheduler.PublishMetrics), so it reports the whole run, not
// only the part since the block was attached.
type SchedulerMetrics struct {
	// Global counters, copied from core.Stats. Misses counts only the
	// subtasks scheduled tardily, not FinishMisses' run-end misses.
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
	// They are the recorder's Accounting's event counts: zero without one.
	TieBreakB     *Counter
	TieBreakGroup *Counter

	// Joins, Leaves, and Reweights count the dynamic-task transactions a
	// policy's Submit accepted (admission.Accept), by operation;
	// AdmissionRejects counts the refused ones (admission.Refuse). A
	// repeated leave of a task already leaving is not counted again.
	Joins            *Counter
	Leaves           *Counter
	Reweights        *Counter
	AdmissionRejects *Counter

	// ReadyLen and PendingLen are the queue lengths at publication.
	ReadyLen   *Gauge
	PendingLen *Gauge

	// TraceTotal and TraceDropped mirror the attached trace recorder's
	// ring occupancy (events ever emitted / events lost to ring wrap),
	// copied in by ObserveRecorder at exposition time. A wrapped ring means
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
		Joins:            reg.Counter("pfair_admission_joins_total", "", "task joins a policy's Submit accepted"),
		Leaves:           reg.Counter("pfair_admission_leaves_total", "", "task leaves a policy's Submit accepted"),
		Reweights:        reg.Counter("pfair_admission_reweights_total", "", "task reweights a policy's Submit accepted"),
		AdmissionRejects: reg.Counter("pfair_admission_rejects_total", "", "dynamic-task requests a policy's Submit refused"),
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

// ObserveRecorder copies rec's ring occupancy (total emitted, dropped
// to wrap) into TraceTotal/TraceDropped and, when an Accounting is
// attached to rec, its tie-break totals into TieBreakB/TieBreakGroup.
// Cold path — call before exposition; a nil recorder is a no-op.
func (m *SchedulerMetrics) ObserveRecorder(rec *Recorder) {
	if rec == nil {
		return
	}
	m.TraceTotal.Set(int64(rec.Total()))
	m.TraceDropped.Set(int64(rec.Dropped()))
	if a := rec.acct; a != nil {
		m.TieBreakB.Set(a.tieB)
		m.TieBreakGroup.Set(a.tieGroup)
	}
}
