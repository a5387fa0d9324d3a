package obs

import (
	"encoding/json"
	"io"
)

// This file exports a recorded schedule as Chrome trace-event JSON (the
// format Perfetto and chrome://tracing load): one lane per processor
// under the "processors" process, one lane per task under the "tasks"
// process, and a "scheduler" lane for decision events. Schedule events
// in consecutive slots on the same processor merge into one span, so a
// task running unpreempted for k slots renders as one k-slot block —
// migrations and preemptions are then visible as span boundaries.
// ParseChrome (chromeparse.go) is the exact inverse; the constants and
// the instant table below are the format both sides share.
//
// The exporter runs after the simulation (cold path); it allocates
// freely.

// Chrome trace-event constants. pid selects the top-level group
// ("process") a lane belongs to; tid the lane within it.
const (
	chromePidProcs = 0       // per-processor lanes
	chromePidTasks = 1       // per-task lanes
	schedulerTid   = 1 << 20 // decision lane inside the processor group
)

// chromeInstant is how one event kind renders as an instant: its name
// and the args carrying the event's Task, A, B and Proc ("" = not an
// arg). An instant sits on its task's lane unless it carries the task
// as an arg: the tie-breaks sit on the scheduler lane and name winner
// and loser by id.
type chromeInstant struct{ name, task, a, b, proc string }

var chromeInstants = [numEventKinds]chromeInstant{
	EvJoin:          {"join", "", "cost", "period", ""},
	EvLeave:         {"leave", "", "allocated", "", ""},
	EvRelease:       {"release", "", "subtask", "deadline", ""},
	EvPreempt:       {"preemption", "", "subtask", "", "proc"},
	EvMigrate:       {"migration", "", "from", "subtask", "to"},
	EvMiss:          {"deadline-miss", "", "subtask", "deadline", ""},
	EvTieBreakB:     {"tiebreak-bbit", "winnerId", "loserId", "deadline", ""},
	EvTieBreakGroup: {"tiebreak-group", "winnerId", "loserId", "deadline", ""},
	EvReweight:      {"reweight", "", "cost", "period", ""},
}

// ChromeName returns the name kind k's events carry in a trace ("schedule"
// for the spans' dispatches), or "" for EvIdle and EvNone, not exported.
func ChromeName(k EventKind) string {
	if k == EvSchedule {
		return "schedule"
	}
	if int(k) < len(chromeInstants) {
		return chromeInstants[k].name
	}
	return ""
}

// ChromeTraceOptions tunes the export.
type ChromeTraceOptions struct {
	// SlotMicros is the rendered length of one slot in microseconds
	// (trace-event timestamps are in µs). 0 means 1000 (1 ms per slot).
	SlotMicros int64
	// Procs forces lanes for processors [0, Procs) even if some were
	// never scheduled on; 0 infers lanes from the events.
	Procs int
	// Extra is merged into the file's top-level otherData object — run
	// configuration (algorithm, processor count) a consumer like
	// cmd/pfairtrace reads back. The exporter's reserved keys
	// (slotMicros, totalEvents, retainedEvents, droppedEvents) win over
	// Extra on collision.
	Extra map[string]any
}

// chromeEvent is one trace-event record. Fields follow the Trace Event
// Format; omitempty keeps metadata events minimal. Args is a map, which
// encoding/json marshals with sorted keys, so output is deterministic.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int64          `json:"pid"`
	Tid   int64          `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	// OtherData is the trace-event format's free-form metadata object.
	// The exporter records the slot scale and the ring accounting there —
	// droppedEvents > 0 is how a consumer distinguishes a silently
	// truncated (wrapped-ring) trace from a complete one.
	OtherData map[string]any `json:"otherData"`
}

// run is one maximal span of consecutive slots a task spent on one
// processor, its subtask index stepping by 0 (one job, as EDF and WRR
// number them) or by 1 (one subtask per slot, as Pfair does).
type run struct {
	task        int32
	proc        int32
	start, end  int64 // slots, inclusive
	first, last int64 // subtask indices at start and end
}

// extends reports whether e continues r.
func (r *run) extends(e Event) bool {
	d := e.A - r.last
	return e.Proc == r.proc && e.Slot == r.end+1 &&
		(d == 0 && r.first == r.last || d == 1 && r.last-r.first == r.end-r.start)
}

// WriteChromeTrace writes the recorder's retained events as Chrome
// trace-event JSON. Load the output in https://ui.perfetto.dev or
// chrome://tracing.
func WriteChromeTrace(w io.Writer, rec *Recorder, opt ChromeTraceOptions) error {
	unit := opt.SlotMicros
	if unit <= 0 {
		unit = 1000
	}
	events := rec.Events()

	// Declare lanes densely, for every id the events, options or names use.
	maxProc := int32(opt.Procs) - 1
	maxTask := int32(len(rec.names)) - 1
	for _, e := range events {
		if e.Proc > maxProc {
			maxProc = e.Proc
		}
		if e.Task > maxTask {
			maxTask = e.Task
		}
	}

	var out []chromeEvent
	meta := func(pid, tid int64, key, name string) {
		out = append(out, chromeEvent{
			Name: key, Phase: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(chromePidProcs, 0, "process_name", "processors")
	meta(chromePidTasks, 0, "process_name", "tasks")
	for k := int32(0); k <= maxProc; k++ {
		meta(chromePidProcs, int64(k), "thread_name", "CPU "+itoa(int64(k)))
	}
	for id := int32(0); id <= maxTask; id++ {
		meta(chromePidTasks, int64(id), "thread_name", rec.TaskName(id))
	}
	meta(chromePidProcs, schedulerTid, "thread_name", "scheduler decisions")

	// Merge consecutive EvSchedule events into runs; everything else
	// becomes an instant on the relevant lane.
	open := map[int32]*run{} // task id → current run
	flush := func(r *run) {
		dur := (r.end - r.start + 1) * unit
		args := map[string]any{
			"task":     rec.TaskName(r.task),
			"subtasks": itoa(r.first) + "-" + itoa(r.last),
		}
		out = append(out, chromeEvent{
			Name: rec.TaskName(r.task), Phase: "X", Cat: "schedule",
			Ts: r.start * unit, Dur: dur, Pid: chromePidProcs, Tid: int64(r.proc), Args: args,
		})
		out = append(out, chromeEvent{
			Name: "CPU " + itoa(int64(r.proc)), Phase: "X", Cat: "schedule",
			Ts: r.start * unit, Dur: dur, Pid: chromePidTasks, Tid: int64(r.task), Args: args,
		})
	}

	for _, e := range events {
		if e.Task < 0 || ChromeName(e.Kind) == "" {
			continue // EvIdle renders as the absence of a span
		}
		if e.Kind == EvSchedule {
			if r := open[e.Task]; r != nil {
				if r.extends(e) {
					r.end, r.last = e.Slot, e.A
					continue
				}
				flush(r)
			}
			open[e.Task] = &run{task: e.Task, proc: e.Proc, start: e.Slot, end: e.Slot, first: e.A, last: e.A}
			continue
		}
		f := chromeInstants[e.Kind]
		args := map[string]any{f.task: e.Task, f.a: e.A, f.b: e.B, f.proc: e.Proc}
		delete(args, "") // the fields this kind does not carry
		ev := chromeEvent{
			Name: f.name, Phase: "i", Scope: "t", Cat: "event",
			Ts: e.Slot * unit, Pid: chromePidTasks, Tid: int64(e.Task), Args: args,
		}
		if f.task != "" {
			ev.Cat, ev.Pid, ev.Tid = "decision", chromePidProcs, schedulerTid
			args["winner"], args["loser"] = rec.TaskName(e.Task), rec.TaskName(int32(e.A))
		}
		out = append(out, ev)
	}
	// Flush remaining runs in task-id order for deterministic output.
	for id := int32(0); id <= maxTask; id++ {
		if r := open[id]; r != nil {
			flush(r)
		}
	}

	od := map[string]any{}
	for k, v := range opt.Extra { //pfair:orderinvariant keys are copied into a map encoding/json marshals with sorted keys
		od[k] = v
	}
	od["slotMicros"] = unit
	od["totalEvents"] = rec.Total()
	od["retainedEvents"] = len(events)
	od["droppedEvents"] = rec.Dropped()

	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: out, DisplayTimeUnit: "ms", OtherData: od})
}
