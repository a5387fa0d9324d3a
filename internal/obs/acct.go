package obs

import (
	"fmt"
	"io"
)

// This file implements the per-task accounting table: a dense-by-id
// aggregation of the event stream into the quantities the paper's
// evaluation (and the related overhead-aware studies in PAPERS.md)
// compares schedulers by — dispatch counts per CPU, preemptions,
// migrations, response times, tardiness, and exact lag extrema.
//
// The table is a Recorder attachment (SetAccounting): Emit forwards every
// event to Apply before it lands in the ring, so the aggregates cover the
// whole run even when the fixed ring wraps and drops its oldest events.
// Apply is on the schedulers' hot path and follows the package's rules —
// preallocated state, integer arithmetic, no maps, no strings; table
// growth happens once per task (and once per new CPU) on the cold side.
//
// The same Apply is reused off-line by cmd/pfairtrace, which replays the
// events ParseChrome reads back from a trace-JSON file through a fresh
// Accounting — one aggregation, two feeds.

// TaskStats is one task's accounting snapshot. JSON tags make it the
// per-task row of pfairtrace's -json report.
type TaskStats struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Cost   int64  `json:"cost"`
	Period int64  `json:"period"`
	// JoinSlot is the slot of the task's EvJoin — its admission, or the
	// slot observation was attached if that happened mid-run.
	JoinSlot int64 `json:"joinSlot"`
	// Left and LeaveSlot record an EvLeave departure.
	Left      bool  `json:"left,omitempty"`
	LeaveSlot int64 `json:"leaveSlot,omitempty"`

	// Reweights counts EvReweight events applied to this id — weight
	// changes that took effect under the same identity. (Policies that
	// reweight by leave-and-join under a fresh id, like core, book the
	// change on the new incarnation's row.) Weights lists the weight
	// history: the parameters at join followed by one entry per applied
	// reweight, in effect order.
	Reweights int64          `json:"reweights,omitempty"`
	Weights   []WeightChange `json:"weights,omitempty"`

	// Dispatches counts quanta received; PerCPU splits the count by the
	// processor that executed them (index = CPU). LastCPU is the CPU of
	// the most recent dispatch, −1 before the first.
	Dispatches int64   `json:"dispatches"`
	PerCPU     []int64 `json:"perCPU"`
	LastCPU    int32   `json:"lastCPU"`

	Releases    int64 `json:"releases"`
	Preemptions int64 `json:"preemptions"`
	// Migrations counts dispatches on a CPU different from the previous
	// dispatch's — derived from the EvSchedule stream (last-run-CPU
	// changes), matching core.Stats.Migrations.
	Migrations int64 `json:"migrations"`

	Misses int64 `json:"misses"`
	// MaxTardiness is the largest (slot+1 − deadline) over this task's
	// misses: by how many slots the worst subtask completed late.
	MaxTardiness int64 `json:"maxTardiness"`

	// Response-time aggregates, in slots from a subtask's release to the
	// end of the slot that executed it (so the minimum is 1). Subtasks
	// whose release the trace did not record are not counted.
	RespCount int64 `json:"respCount"`
	RespSum   int64 `json:"respSum"`
	RespMax   int64 `json:"respMax"`

	// TieBreakWins counts deadline ties this task won by the b-bit or
	// group-deadline rule (EvTieBreakB/EvTieBreakGroup with this task as
	// winner).
	TieBreakWins int64 `json:"tieBreakWins"`

	// LagMaxNum/LagDen and LagMinNum/LagDen are the exact signed lag
	// extrema as integer pairs (LagDen = the task's period; both zero
	// until the task's parameters are known). Lag is evaluated at every
	// slot boundary: lag(τ) = (Cost·(τ−JoinSlot) − dispatched·Period) /
	// Period, which is piecewise linear in τ with slope Cost/Period > 0
	// between allocations and a −1 step at each allocation — so checking
	// the boundaries immediately before and after every dispatch (plus
	// join, leave, and the final horizon) visits every extremum.
	LagMaxNum int64 `json:"lagMaxNum"`
	LagMinNum int64 `json:"lagMinNum"`
	LagDen    int64 `json:"lagDen"`
}

// WeightChange is one entry of a task's weight history: the parameters
// that took effect at Slot (the join itself, or an applied reweight).
type WeightChange struct {
	Slot   int64 `json:"slot"`
	Cost   int64 `json:"cost"`
	Period int64 `json:"period"`
}

// taskAcct is the mutable per-task accumulator behind a TaskStats row.
type taskAcct struct {
	TaskStats
	// pendSub/pendRel hold the most recently released, not yet scheduled
	// subtask and its release slot, for response-time measurement.
	// pendSub == 0 means none (subtask indices are 1-based).
	pendSub int64
	pendRel int64
	// dispBase is the dispatch count when the current lag reference
	// began: zero from the join, reset by an in-place EvReweight so the
	// fluid reference restarts at the new rate.
	dispBase int64
	known    bool // an event mentioned this id
}

// Accounting aggregates a scheduler event stream into per-task rows.
// Attach one to a Recorder with SetAccounting before the run, or feed
// parsed events through Apply directly (cmd/pfairtrace).
type Accounting struct {
	tasks    []*taskAcct // dense by task id
	events   int64       // events consumed
	procs    int32       // max CPU index seen, +1
	tieB     int64       // EvTieBreakB events consumed
	tieGroup int64       // EvTieBreakGroup events consumed
}

// NewAccounting returns an empty table.
func NewAccounting() *Accounting {
	return &Accounting{}
}

// Events returns the number of events consumed.
func (a *Accounting) Events() int64 { return a.events }

// get returns the accumulator for id, or nil when the table has no row
// yet. Hot path: one bounds check and one load.
//
//pfair:hotpath
func (a *Accounting) get(id int32) *taskAcct {
	if id < 0 || int(id) >= len(a.tasks) {
		return nil
	}
	return a.tasks[id]
}

// grow creates (and, if needed, makes room for) the accumulator of id.
// Runs once per task, never in steady state.
//
//pfair:allowalloc table growth runs once per task id, at its first event, not in steady state
func (a *Accounting) grow(id int32) *taskAcct {
	for int(id) >= len(a.tasks) {
		a.tasks = append(a.tasks, nil)
	}
	en := &taskAcct{}
	en.ID = id
	en.LastCPU = -1
	a.tasks[id] = en
	return en
}

// growCPU extends en's per-CPU dispatch vector to include cpu. Runs once
// per (task, new CPU) pair.
//
//pfair:hotpath
func (a *Accounting) growCPU(en *taskAcct, cpu int32) {
	for int32(len(en.PerCPU)) <= cpu {
		en.PerCPU = append(en.PerCPU, 0)
	}
}

// ensure returns the accumulator for id, creating it on first sight.
//
//pfair:hotpath
func (a *Accounting) ensure(id int32) *taskAcct {
	en := a.get(id)
	if en == nil {
		en = a.grow(id)
	}
	en.known = true
	return en
}

// recordWeight appends one weight-history entry (amortized growth into
// the entry's own slice, once per join or reweight).
//
//pfair:hotpath
func (en *taskAcct) recordWeight(slot, cost, period int64) {
	en.Weights = append(en.Weights, WeightChange{Slot: slot, Cost: cost, Period: period})
}

// lagCandidate folds the signed lag numerator at slot boundary τ into
// en's extrema, given the dispatch count at τ.
//
//pfair:hotpath
func (en *taskAcct) lagCandidate(tau, dispatched int64) {
	if en.Period <= 0 {
		return
	}
	num := en.Cost*(tau-en.JoinSlot) - (dispatched-en.dispBase)*en.Period
	if num > en.LagMaxNum {
		en.LagMaxNum = num
	}
	if num < en.LagMinNum {
		en.LagMinNum = num
	}
}

// Apply folds one event into the table. It is invoked by Recorder.Emit
// for every event when attached, so it must stay allocation-free in
// steady state; growth is confined to the first sighting of a task or
// CPU.
//
//pfair:hotpath
func (a *Accounting) Apply(e Event) {
	a.events++
	if e.Proc >= a.procs {
		a.procs = e.Proc + 1
	}
	if e.Task < 0 {
		return // EvIdle and other taskless events carry no per-task fact
	}
	switch e.Kind {
	case EvJoin:
		en := a.ensure(e.Task)
		en.Cost, en.Period = e.A, e.B
		en.JoinSlot = e.Slot
		en.LagDen = e.B
		// Lag is zero at join; the extrema start there.
		en.LagMaxNum, en.LagMinNum = 0, 0
		en.recordWeight(e.Slot, e.A, e.B)
	case EvReweight:
		en := a.ensure(e.Task)
		// An in-place weight change: close the old fluid reference at
		// this boundary, then restart it at the new rate — lag is zero
		// again at the instant the change lands, and the extrema restart
		// with it (they are numerators over the new LagDen).
		en.lagCandidate(e.Slot, en.Dispatches)
		en.Reweights++
		en.Cost, en.Period = e.A, e.B
		en.JoinSlot = e.Slot
		en.LagDen = e.B
		en.dispBase = en.Dispatches
		en.LagMaxNum, en.LagMinNum = 0, 0
		en.recordWeight(e.Slot, e.A, e.B)
	case EvRelease:
		en := a.ensure(e.Task)
		en.Releases++
		en.pendSub = e.A
		en.pendRel = e.Slot
	case EvSchedule:
		en := a.ensure(e.Task)
		// Lag peaks immediately before an allocation and dips immediately
		// after it: fold both boundaries of this slot.
		en.lagCandidate(e.Slot, en.Dispatches)
		en.Dispatches++
		en.lagCandidate(e.Slot+1, en.Dispatches)
		if en.LastCPU >= 0 && en.LastCPU != e.Proc {
			en.Migrations++
		}
		en.LastCPU = e.Proc
		if int32(len(en.PerCPU)) <= e.Proc {
			a.growCPU(en, e.Proc)
		}
		en.PerCPU[e.Proc]++
		if en.pendSub != 0 && en.pendSub == e.A {
			resp := e.Slot + 1 - en.pendRel
			en.RespCount++
			en.RespSum += resp
			if resp > en.RespMax {
				en.RespMax = resp
			}
			en.pendSub = 0
		}
	case EvPreempt:
		a.ensure(e.Task).Preemptions++
	case EvMiss:
		en := a.ensure(e.Task)
		en.Misses++
		if tard := e.Slot + 1 - e.B; tard > en.MaxTardiness {
			en.MaxTardiness = tard
		}
	case EvLeave:
		en := a.ensure(e.Task)
		en.Left = true
		en.LeaveSlot = e.Slot
		en.lagCandidate(e.Slot, en.Dispatches)
	case EvTieBreakB:
		a.tieB++
		a.ensure(e.Task).TieBreakWins++
	case EvTieBreakGroup:
		a.tieGroup++
		a.ensure(e.Task).TieBreakWins++
	case EvMigrate, EvIdle, EvNone:
		// EvMigrate is derived from the EvSchedule stream (LastCPU);
		// counting the narrated event too would double-book.
	}
}

// SetName records the display name for id (cold path). Recorder.
// RegisterTask forwards here when an Accounting is attached.
func (a *Accounting) SetName(id int32, name string) {
	if id < 0 {
		return
	}
	a.ensure(id).Name = name
}

// Finalize folds the trailing lag candidate at the horizon for every
// task still in the system — lag grows linearly after the last dispatch,
// so the run's end is the last place an extremum can hide. Call once
// after the final slot (idempotent for a fixed horizon).
func (a *Accounting) Finalize(horizon int64) {
	for _, en := range a.tasks {
		if en == nil || !en.known || en.Left {
			continue
		}
		en.lagCandidate(horizon, en.Dispatches)
	}
}

// Len returns the number of tasks in the table.
func (a *Accounting) Len() int {
	n := 0
	for _, en := range a.tasks {
		if en != nil && en.known {
			n++
		}
	}
	return n
}

// Snapshot returns a deep copy of every known task row in id order.
func (a *Accounting) Snapshot() []TaskStats {
	out := make([]TaskStats, 0, len(a.tasks))
	for _, en := range a.tasks {
		if en == nil || !en.known {
			continue
		}
		ts := en.TaskStats
		ts.PerCPU = append([]int64(nil), en.PerCPU...)
		ts.Weights = append([]WeightChange(nil), en.Weights...)
		if ts.Name == "" {
			ts.Name = "task#" + itoa(int64(ts.ID))
		}
		out = append(out, ts)
	}
	return out
}

// WritePrometheus writes the table in Prometheus text exposition format
// with task (and, for dispatches, cpu) labels. The pfair_acct_* families
// are the only per-task series; SchedulerMetrics' scheduler-wide families
// are disjoint from them, so both can serve from one endpoint.
func (a *Accounting) WritePrometheus(w io.Writer) error {
	snap := a.Snapshot()
	reg := NewRegistry()
	// Register family-major so each family's series are contiguous.
	for _, ts := range snap {
		lab := `task="` + EscapeLabel(ts.Name) + `"`
		for cpu, n := range ts.PerCPU {
			if n == 0 {
				continue
			}
			reg.Counter("pfair_acct_dispatches_total", lab+`,cpu="`+itoa(int64(cpu))+`"`,
				"quanta dispatched, per task and executing CPU").Add(n)
		}
	}
	type col struct {
		family, help string
		kind         MetricKind
		get          func(ts *TaskStats) int64
	}
	cols := []col{
		{"pfair_acct_releases_total", "subtask releases, per task", KindCounter, func(ts *TaskStats) int64 { return ts.Releases }},
		{"pfair_acct_preemptions_total", "preemptions, per task", KindCounter, func(ts *TaskStats) int64 { return ts.Preemptions }},
		{"pfair_acct_migrations_total", "dispatches on a different CPU than the previous one, per task", KindCounter, func(ts *TaskStats) int64 { return ts.Migrations }},
		{"pfair_acct_deadline_misses_total", "deadline misses, per task", KindCounter, func(ts *TaskStats) int64 { return ts.Misses }},
		{"pfair_acct_tiebreak_wins_total", "deadline ties won by the b-bit or group-deadline rule, per task", KindCounter, func(ts *TaskStats) int64 { return ts.TieBreakWins }},
		{"pfair_acct_reweights_total", "weight changes applied in place, per task", KindCounter, func(ts *TaskStats) int64 { return ts.Reweights }},
		{"pfair_acct_response_slots_sum", "sum of measured subtask response times, in slots", KindCounter, func(ts *TaskStats) int64 { return ts.RespSum }},
		{"pfair_acct_response_slots_count", "subtask response times measured", KindCounter, func(ts *TaskStats) int64 { return ts.RespCount }},
		{"pfair_acct_response_max_slots", "largest subtask response time, in slots", KindGauge, func(ts *TaskStats) int64 { return ts.RespMax }},
		{"pfair_acct_max_tardiness_slots", "largest deadline overrun, in slots", KindGauge, func(ts *TaskStats) int64 { return ts.MaxTardiness }},
		{"pfair_acct_lag_max_num", "numerator of the maximum signed lag (denominator = the task's period)", KindGauge, func(ts *TaskStats) int64 { return ts.LagMaxNum }},
		{"pfair_acct_lag_min_num", "numerator of the minimum signed lag (denominator = the task's period)", KindGauge, func(ts *TaskStats) int64 { return ts.LagMinNum }},
	}
	for _, c := range cols {
		for i := range snap {
			ts := &snap[i]
			lab := `task="` + EscapeLabel(ts.Name) + `"`
			switch c.kind {
			case KindGauge:
				reg.Gauge(c.family, lab, c.help).Set(c.get(ts))
			default:
				reg.Counter(c.family, lab, c.help).Add(c.get(ts))
			}
		}
	}
	return reg.WritePrometheus(w)
}

// WriteTaskTable writes the rows as a human-readable table — the
// per-task summary pfairsim -taskstats and pfairtrace share. Response
// means are rendered as exact sum/count pairs; everything else is a
// plain integer.
func WriteTaskTable(w io.Writer, stats []TaskStats) error {
	if _, err := fmt.Fprintf(w, "%-12s %9s %10s %8s %7s %5s %6s %6s %8s %6s %5s %14s\n",
		"task", "cost/per", "dispatches", "releases", "preempt", "migr", "tbwins", "misses", "max-tard", "resp", "max", "lag[min,max]"); err != nil {
		return err
	}
	for i := range stats {
		ts := &stats[i]
		resp := "-"
		if ts.RespCount > 0 {
			resp = itoa(ts.RespSum) + "/" + itoa(ts.RespCount)
		}
		lag := "-"
		if ts.LagDen > 0 {
			lag = "[" + itoa(ts.LagMinNum) + "," + itoa(ts.LagMaxNum) + "]/" + itoa(ts.LagDen)
		}
		name := ts.Name
		if ts.Left {
			name += "†"
		}
		if _, err := fmt.Fprintf(w, "%-12s %9s %10d %8d %7d %5d %6d %6d %8d %6s %5d %14s\n",
			name, itoa(ts.Cost)+"/"+itoa(ts.Period),
			ts.Dispatches, ts.Releases, ts.Preemptions, ts.Migrations,
			ts.TieBreakWins, ts.Misses, ts.MaxTardiness, resp, ts.RespMax, lag); err != nil {
			return err
		}
	}
	return nil
}
