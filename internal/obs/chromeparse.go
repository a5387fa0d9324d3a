package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// maxChromeEvents caps the events ParseChrome reconstructs, whatever
// otherData.retainedEvents claims: 1<<30 events is a 40 GiB ring.
const maxChromeEvents = 1 << 30

// Trace is an exported trace read back by ParseChrome.
type Trace struct {
	Events []Event  // in canonical order (SortEvents)
	Names  []string // task lane names, indexed by task id
	Procs  int      // processor lanes 0..Procs-1
	// otherData's slot scale and ring accounting, and all of it (Extra
	// included) with numbers as json.Number.
	SlotMicros               int64
	Total, Retained, Dropped int64
	Meta                     map[string]any
}

// TaskName returns task id's name, or "task#id" for an undeclared id.
func (t *Trace) TaskName(id int32) string {
	if id >= 0 && int(id) < len(t.Names) {
		return t.Names[id]
	}
	return "task#" + itoa(int64(id))
}

// ParseChrome reads a trace written by WriteChromeTrace. Anything the
// writer cannot produce is an error, never a panic: a missing or invalid
// name, phase, ts, pid, tid or dur; a ts or dur off the slotMicros grid;
// metadata other than process_name and thread_name; lanes not declared
// once each, in order from 0, or an event on an undeclared one;
// overlapping spans in one lane; a span whose subtasks do not step by 0
// or 1 per slot, or without its twin (the task-lane span named "CPU k"
// with the same ts, dur and subtasks); an unknown instant or one without
// its integer args; a missing otherData or ring accounting that does not
// add up; more events than otherData.retainedEvents, checked before any
// is allocated.
//
// Tasks are resolved by id, never by name: a dispatch belongs to its
// twin's task lane, a tie-break to its winnerId and loserId args.
//
// For WriteChromeTrace output, Events is exactly the recorder's retained
// events in canonical order, minus what the format does not carry:
// EvIdle (idle renders as the absence of a span); the Proc of every
// instant but preemption and migration, read back as −1; and B of
// EvSchedule, EvLeave and EvPreempt, read back as 0.
func ParseChrome(r io.Reader) (*Trace, error) {
	return parseChrome(r, maxChromeEvents)
}

// parseChrome is ParseChrome with the events also capped at limit.
func parseChrome(r io.Reader, limit int64) (*Trace, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var f chromeFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("not a trace-event JSON object: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after the trace object")
	}
	t := &Trace{Meta: f.OtherData}
	if err := t.readOtherData(); err != nil {
		return nil, err
	}
	if len(f.TraceEvents) == 0 {
		return nil, errors.New("traceEvents is empty")
	}
	p := chromeParser{t: t, budget: min(t.Retained, limit)}
	if err := p.lanes(f.TraceEvents); err != nil {
		return nil, err
	}
	for i := range f.TraceEvents {
		e := &f.TraceEvents[i]
		var err error
		switch slot := e.Ts / t.SlotMicros; {
		case e.Ts%t.SlotMicros != 0:
			err = fmt.Errorf("ts %d is not a multiple of slotMicros %d", e.Ts, t.SlotMicros)
		case e.Phase == "X":
			err = p.span(e, slot)
		case e.Phase == "i":
			err = p.instant(e, slot)
		case e.Phase != "M":
			err = fmt.Errorf("unexpected phase %q (the writer emits X, i and M)", e.Phase)
		}
		if err != nil {
			return nil, fmt.Errorf("event %d (%q): %w", i, e.Name, err)
		}
	}
	if err := p.pairTwins(); err != nil {
		return nil, err
	}
	t.Events = append(make([]Event, 0, min(t.Retained, limit)-p.budget), p.instants...)
	for _, sp := range p.spans[chromePidTasks] {
		for i := int64(0); i < sp.n; i++ {
			t.Events = append(t.Events, Event{
				Slot: sp.start + i, Kind: EvSchedule,
				Task: int32(sp.lane), Proc: int32(sp.twin), A: sp.first + i*sp.step,
			})
		}
	}
	SortEvents(t.Events)
	return t, nil
}

// UnmarshalJSON decodes one event with numbers in args kept exact
// (json.Number). A missing ts, pid or tid decodes as −1, out of range.
func (e *chromeEvent) UnmarshalJSON(b []byte) error {
	type plain chromeEvent
	v := plain{Ts: -1, Pid: -1, Tid: -1}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	err := dec.Decode(&v)
	*e = chromeEvent(v)
	return err
}

// exactInt returns v, a decoded JSON number, as an exact integer.
func exactInt(v any) (int64, error) {
	n, _ := v.(json.Number)
	return strconv.ParseInt(string(n), 10, 64)
}

// readOtherData reads the slot scale and checks the ring accounting.
func (t *Trace) readOtherData() error {
	for _, f := range []struct {
		key string
		v   *int64
		min int64
	}{{"slotMicros", &t.SlotMicros, 1}, {"totalEvents", &t.Total, 0}, {"retainedEvents", &t.Retained, 0}, {"droppedEvents", &t.Dropped, 0}} {
		v, err := exactInt(t.Meta[f.key])
		if err != nil || v < f.min {
			return fmt.Errorf("otherData.%s is missing or not an integer ≥ %d", f.key, f.min)
		}
		*f.v = v
	}
	if t.Retained > t.Total || t.Total-t.Retained != t.Dropped {
		return fmt.Errorf("otherData ring accounting inconsistent: totalEvents %d != retainedEvents %d + droppedEvents %d",
			t.Total, t.Retained, t.Dropped)
	}
	return nil
}

// span is one X event on lane (a CPU or a task): n slots from start,
// subtask index first at start, stepping by step per slot. twin is the
// CPU a task-lane span names, −1 on a processor-lane span.
type span struct {
	lane, twin  int64
	start, n    int64
	first, step int64
}

type chromeParser struct {
	t        *Trace
	sched    bool      // the scheduler lane is declared
	budget   int64     // events the trace may still expand to
	instants []Event   // in file order
	spans    [2][]span // by pid: processor lanes, task lanes
}

func (p *chromeParser) isTask(id int64) bool { return id >= 0 && id < int64(len(p.t.Names)) }

// lanes reads the metadata, which declares each group's lanes once, in
// order from 0, and checks every event's name, ts, pid and tid.
func (p *chromeParser) lanes(evs []chromeEvent) error {
	for i := range evs {
		e := &evs[i]
		if e.Name == "" || e.Ts < 0 || e.Tid < 0 || e.Pid != chromePidProcs && e.Pid != chromePidTasks {
			return fmt.Errorf("event %d (%q): no name, or ts %d, pid %d, tid %d out of range", i, e.Name, e.Ts, e.Pid, e.Tid)
		}
		if e.Phase != "M" {
			continue
		}
		name, _ := e.Args["name"].(string)
		ok := name != ""
		switch {
		case e.Name == "process_name":
			ok = ok && e.Tid == 0
		case e.Name != "thread_name":
			ok = false
		case e.Pid == chromePidProcs && e.Tid == schedulerTid:
			ok, p.sched = ok && !p.sched, true
		case e.Pid == chromePidProcs:
			ok = ok && e.Tid == int64(p.t.Procs)
			p.t.Procs++
		default:
			ok = ok && e.Tid == int64(len(p.t.Names))
			p.t.Names = append(p.t.Names, name)
		}
		if !ok {
			return fmt.Errorf("event %d: metadata %q (pid %d tid %d) is not a named process or the next lane of its group",
				i, e.Name, e.Pid, e.Tid)
		}
	}
	return nil
}

// take charges n events against the budget.
func (p *chromeParser) take(n int64) error {
	p.budget -= n
	if p.budget < 0 {
		return fmt.Errorf("trace expands to more than otherData.retainedEvents (%d) events", p.t.Retained)
	}
	return nil
}

func (p *chromeParser) span(e *chromeEvent, slot int64) error {
	if e.Dur <= 0 || e.Dur%p.t.SlotMicros != 0 || e.Ts > math.MaxInt64-e.Dur {
		return fmt.Errorf("dur %d is not a positive multiple of slotMicros %d", e.Dur, p.t.SlotMicros)
	}
	n := e.Dur / p.t.SlotMicros
	subs, _ := e.Args["subtasks"].(string)
	var first, last int64
	_, err := fmt.Sscanf(subs, "%d-%d", &first, &last)
	sp := span{lane: e.Tid, twin: -1, start: slot, n: n, first: first}
	if last != first {
		sp.step = 1
	}
	if err != nil || itoa(first)+"-"+itoa(last) != subs || last != first && (last < first || last-first != n-1) {
		return fmt.Errorf("subtasks %q do not step by 0 or 1 over %d slots", subs, n)
	}
	if e.Pid == chromePidTasks {
		var cpu int64
		_, err := fmt.Sscanf(e.Name, "CPU %d", &cpu)
		if err != nil || "CPU "+itoa(cpu) != e.Name || cpu < 0 || cpu >= int64(p.t.Procs) || !p.isTask(e.Tid) {
			return errors.New("task-lane span on an undeclared lane or not naming a declared CPU")
		}
		sp.twin = cpu
	} else if e.Tid >= int64(p.t.Procs) {
		return fmt.Errorf("span on undeclared processor lane %d", e.Tid)
	} else if err := p.take(n); err != nil {
		return err
	}
	p.spans[e.Pid] = append(p.spans[e.Pid], sp)
	return nil
}

func (p *chromeParser) instant(e *chromeEvent, slot int64) error {
	kind := EvNone
	for k, f := range chromeInstants {
		if f.name != "" && f.name == e.Name {
			kind = EventKind(k)
		}
	}
	if kind == EvNone {
		return errors.New("unknown instant")
	}
	f := chromeInstants[kind]
	ev := Event{Slot: slot, Kind: kind}
	task, proc := e.Tid, int64(-1)
	for _, arg := range []struct {
		key string
		v   *int64
	}{{f.task, &task}, {f.a, &ev.A}, {f.b, &ev.B}, {f.proc, &proc}} {
		var err error
		if arg.key != "" {
			if *arg.v, err = exactInt(e.Args[arg.key]); err != nil {
				return fmt.Errorf("no integer args.%s", arg.key)
			}
		}
	}
	onLane := e.Pid == chromePidTasks
	if f.task != "" {
		onLane = e.Pid == chromePidProcs && e.Tid == schedulerTid && p.sched
	}
	switch {
	case !onLane:
		return fmt.Errorf("instant off its lane: pid %d tid %d", e.Pid, e.Tid)
	case !p.isTask(task) || f.task != "" && !p.isTask(ev.A):
		return errors.New("instant names an undeclared task lane")
	case f.proc != "" && (proc < 0 || proc >= int64(p.t.Procs)):
		return fmt.Errorf("args.%s %d names no declared processor lane", f.proc, proc)
	}
	ev.Task, ev.Proc = int32(task), int32(proc)
	if err := p.take(1); err != nil {
		return err
	}
	p.instants = append(p.instants, ev)
	return nil
}

// pairTwins checks that no two spans overlap in one lane and that the
// task-lane spans and their processor-lane twins pair up one to one.
func (p *chromeParser) pairTwins() error {
	for _, ss := range p.spans {
		sort.Slice(ss, func(i, j int) bool {
			return ss[i].lane < ss[j].lane || ss[i].lane == ss[j].lane && ss[i].start < ss[j].start
		})
		for i := 1; i < len(ss); i++ {
			if a, b := ss[i-1], ss[i]; a.lane == b.lane && a.start+a.n > b.start {
				return fmt.Errorf("overlapping spans on lane %d at slot %d", b.lane, b.start)
			}
		}
	}
	unpaired := map[span]bool{}
	for _, sp := range p.spans[chromePidProcs] {
		unpaired[sp] = true
	}
	for _, sp := range p.spans[chromePidTasks] {
		twin := sp
		twin.lane, twin.twin = sp.twin, -1
		if !unpaired[twin] {
			return fmt.Errorf("task %d's span at slot %d has no processor-lane twin", sp.lane, sp.start)
		}
		delete(unpaired, twin)
	}
	if len(unpaired) > 0 {
		return fmt.Errorf("%d processor-lane spans have no task-lane twin", len(unpaired))
	}
	return nil
}

// kindOrder ranks event kinds in a slot's causal order: admissions,
// releases, the pick's tie-breaks, the dispatch and its effects, then
// the post-slot bookkeeping. Kinds it does not name rank 0.
var kindOrder = [256]uint8{
	EvJoin: 1, EvReweight: 2, EvRelease: 3, EvTieBreakB: 4, EvTieBreakGroup: 5, EvSchedule: 6,
	EvIdle: 7, EvPreempt: 8, EvMigrate: 9, EvMiss: 10, EvLeave: 11,
}

// SortEvents puts events in the canonical order ParseChrome returns: by
// slot, kind (kindOrder), task, processor, A and B — a total order, so
// any two orderings of one multiset of events sort equal.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		switch {
		case a.Slot != b.Slot:
			return a.Slot < b.Slot
		case kindOrder[a.Kind] != kindOrder[b.Kind]:
			return kindOrder[a.Kind] < kindOrder[b.Kind]
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.Task != b.Task:
			return a.Task < b.Task
		case a.Proc != b.Proc:
			return a.Proc < b.Proc
		case a.A != b.A:
			return a.A < b.A
		}
		return a.B < b.B
	})
}
