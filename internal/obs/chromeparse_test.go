package obs_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/edf"
	"pfair/internal/engine"
	"pfair/internal/fuzz"
	"pfair/internal/obs"
	"pfair/internal/task"
	"pfair/internal/wrr"
)

// carried is what ParseChrome reads back from a recorder's events: the
// format does not carry EvIdle, the Proc of instants other than
// preemption and migration (read as −1), or B of EvSchedule, EvLeave and
// EvPreempt (read as 0). The result is in canonical order.
func carried(evs []obs.Event) []obs.Event {
	out := []obs.Event{}
	for _, e := range evs {
		switch e.Kind {
		case obs.EvIdle:
			continue
		case obs.EvSchedule, obs.EvLeave, obs.EvPreempt:
			e.B = 0
		}
		if e.Kind != obs.EvSchedule && e.Kind != obs.EvPreempt && e.Kind != obs.EvMigrate {
			e.Proc = -1
		}
		out = append(out, e)
	}
	obs.SortEvents(out)
	return out
}

// export writes rec as a Chrome trace.
func export(t testing.TB, rec *obs.Recorder, procs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := obs.WriteChromeTrace(&buf, rec, obs.ChromeTraceOptions{Procs: procs, Extra: map[string]any{"m": procs}})
	if err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return buf.Bytes()
}

// roundTrip exports rec, parses the result, and checks that the parsed
// events and names are exactly what the recorder holds.
func roundTrip(t *testing.T, rec *obs.Recorder, procs int) *obs.Trace {
	t.Helper()
	tr, err := obs.ParseChrome(bytes.NewReader(export(t, rec, procs)))
	if err != nil {
		t.Fatalf("ParseChrome rejected writer output: %v", err)
	}
	if want := carried(rec.Events()); !reflect.DeepEqual(tr.Events, want) {
		t.Fatalf("parsed events differ from the recorder's:\n got %v\nwant %v", tr.Events, want)
	}
	for id, name := range tr.Names {
		if want := rec.TaskName(int32(id)); name != want {
			t.Errorf("task %d parsed as %q, recorder has %q", id, name, want)
		}
	}
	return tr
}

// replay feeds a parsed trace through a fresh Accounting, as
// cmd/pfairtrace does.
func replay(tr *obs.Trace, horizon int64) []obs.TaskStats {
	acct := obs.NewAccounting()
	for id, name := range tr.Names {
		acct.SetName(int32(id), name)
	}
	for _, e := range tr.Events {
		acct.Apply(e)
	}
	acct.Finalize(horizon)
	return acct.Snapshot()
}

// coreRecorder runs a core scheduler over set with a recorder attached.
func coreRecorder(t testing.TB, alg core.Algorithm, m int, set task.Set, horizon int64) *obs.Recorder {
	t.Helper()
	s := core.NewScheduler(m, alg, core.Options{})
	rec := obs.NewRecorder(1 << 16)
	s.Observe(rec, obs.NewSchedulerMetrics(nil))
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join %v: %v", tk, err)
		}
	}
	s.RunUntil(horizon)
	return rec
}

func quickstartSet() task.Set {
	return task.Set{task.MustNew("A", 2, 3), task.MustNew("B", 2, 3), task.MustNew("C", 2, 3)}
}

// epdfCounterexample is the full-utilization set on five processors on
// which EPDF misses a deadline and PD² breaks ties by b-bit.
func epdfCounterexample() task.Set {
	return task.Set{
		task.MustNew("T0", 4, 9), task.MustNew("T1", 3, 6), task.MustNew("T2", 1, 2),
		task.MustNew("T3", 8, 9), task.MustNew("T4", 6, 10), task.MustNew("T5", 3, 6),
		task.MustNew("T6", 9, 10), task.MustNew("T7", 2, 3),
	}
}

// traceJSON wraps events into a trace with two CPU lanes, task lanes A
// and B, the scheduler lane, and the given otherData.
func traceJSON(events, other string) string {
	return `{"traceEvents":[` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"CPU 0"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":1,"args":{"name":"CPU 1"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"A"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"B"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":1048576,"args":{"name":"scheduler decisions"}}` +
		events + `],"otherData":` + other + `}`
}

// ring is an otherData object with a complete ring of n events.
func ring(n int) string {
	return fmt.Sprintf(`{"slotMicros":1000,"totalEvents":%d,"retainedEvents":%d,"droppedEvents":0}`, n, n)
}

// spans is A's run of dur µs on CPU cpu from slot 0, on both lanes.
func spans(cpu int, dur int, subtasks string) string {
	args := `"args":{"task":"A","subtasks":"` + subtasks + `"}`
	return fmt.Sprintf(`,{"name":"A","ph":"X","ts":0,"dur":%d,"pid":0,"tid":%d,%s}`+
		`,{"name":"CPU %d","ph":"X","ts":0,"dur":%d,"pid":1,"tid":0,%s}`, dur, cpu, args, cpu, dur, args)
}

const okSpans = `,{"name":"A","ph":"X","ts":0,"dur":2000,"pid":0,"tid":0,"args":{"task":"A","subtasks":"1-2"}}` +
	`,{"name":"CPU 0","ph":"X","ts":0,"dur":2000,"pid":1,"tid":0,"args":{"task":"A","subtasks":"1-2"}}`

func TestParseChromeAcceptsMinimalTrace(t *testing.T) {
	tr, err := obs.ParseChrome(strings.NewReader(traceJSON(okSpans+
		`,{"name":"release","ph":"i","ts":1000,"pid":1,"tid":1,"args":{"subtask":1,"deadline":3}}`+
		`,{"name":"tiebreak-bbit","ph":"i","ts":1000,"pid":0,"tid":1048576,"args":{"winnerId":1,"loserId":0,"deadline":3}}`,
		ring(4))))
	if err != nil {
		t.Fatalf("ParseChrome: %v", err)
	}
	want := []obs.Event{
		{Slot: 0, Kind: obs.EvSchedule, Task: 0, Proc: 0, A: 1},
		{Slot: 1, Kind: obs.EvRelease, Task: 1, Proc: -1, A: 1, B: 3},
		{Slot: 1, Kind: obs.EvTieBreakB, Task: 1, Proc: -1, A: 0, B: 3},
		{Slot: 1, Kind: obs.EvSchedule, Task: 0, Proc: 0, A: 2},
	}
	if !reflect.DeepEqual(tr.Events, want) {
		t.Errorf("events = %v, want %v", tr.Events, want)
	}
	if tr.Procs != 2 || !reflect.DeepEqual(tr.Names, []string{"A", "B"}) || tr.SlotMicros != 1000 {
		t.Errorf("procs %d, names %q, slotMicros %d", tr.Procs, tr.Names, tr.SlotMicros)
	}
}

// TestParseChromeRejects: every input the writer cannot produce is an
// error, never a panic. The first three are the inputs that crashed or
// exhausted the old name-resolving reader.
func TestParseChromeRejects(t *testing.T) {
	for _, tc := range []struct{ name, json string }{
		{"span on tid -1", traceJSON(spans(-1, 1000, "1-1"), ring(1))},
		{"span on tid 200000", traceJSON(spans(200000, 1000, "1-1"), ring(1))},
		{"span expands past retainedEvents", traceJSON(spans(0, 5000*1000, "1-1"), ring(2))},

		{"not JSON", "not json"},
		{"array", `[1,2]`},
		{"trailing data", traceJSON(okSpans, ring(2)) + `}`},
		{"empty traceEvents", `{"traceEvents":[],"otherData":` + ring(0) + `}`},
		{"no otherData", strings.TrimSuffix(traceJSON(okSpans, `{}`), `,"otherData":{}}`) + `}`},
		{"slotMicros 0", traceJSON(okSpans, `{"slotMicros":0,"totalEvents":2,"retainedEvents":2,"droppedEvents":0}`)},
		{"slotMicros not an integer", traceJSON(okSpans, `{"slotMicros":1e3,"totalEvents":2,"retainedEvents":2,"droppedEvents":0}`)},
		{"ring does not add up", traceJSON(okSpans, `{"slotMicros":1000,"totalEvents":5,"retainedEvents":2,"droppedEvents":0}`)},
		{"negative dropped", traceJSON(okSpans, `{"slotMicros":1000,"totalEvents":1,"retainedEvents":2,"droppedEvents":-1}`)},
		{"no retainedEvents", traceJSON(okSpans, `{"slotMicros":1000,"totalEvents":2,"droppedEvents":0}`)},

		{"missing name", traceJSON(`,{"ph":"i","ts":0,"pid":1,"tid":0,"args":{"cost":1,"period":2}}`, ring(1))},
		{"missing ts", traceJSON(`,{"name":"join","ph":"i","pid":1,"tid":0,"args":{"cost":1,"period":2}}`, ring(1))},
		{"missing pid", traceJSON(`,{"name":"join","ph":"i","ts":0,"tid":0,"args":{"cost":1,"period":2}}`, ring(1))},
		{"missing tid", traceJSON(`,{"name":"join","ph":"i","ts":0,"pid":1,"args":{"cost":1,"period":2}}`, ring(1))},
		{"fractional ts", traceJSON(`,{"name":"join","ph":"i","ts":0.5,"pid":1,"tid":0,"args":{"cost":1,"period":2}}`, ring(1))},
		{"negative ts", traceJSON(`,{"name":"join","ph":"i","ts":-1000,"pid":1,"tid":0,"args":{"cost":1,"period":2}}`, ring(1))},
		{"pid 2", traceJSON(`,{"name":"join","ph":"i","ts":0,"pid":2,"tid":0,"args":{"cost":1,"period":2}}`, ring(1))},
		{"unknown phase", traceJSON(`,{"name":"join","ph":"B","ts":0,"pid":1,"tid":0,"args":{"cost":1,"period":2}}`, ring(1))},
		{"ts off the slot grid", traceJSON(`,{"name":"join","ph":"i","ts":1500,"pid":1,"tid":0,"args":{"cost":1,"period":2}}`, ring(1))},

		{"span without dur", traceJSON(`,{"name":"A","ph":"X","ts":0,"pid":0,"tid":0,"args":{"task":"A","subtasks":"1-1"}}`, ring(1))},
		{"dur off the slot grid", traceJSON(spans(0, 1500, "1-1"), ring(2))},
		{"span past the last ts", traceJSON(`,{"name":"A","ph":"X","ts":9223372036854775000,"dur":1000,"pid":0,"tid":0,"args":{"task":"A","subtasks":"1-1"}}`, ring(1))},
		{"subtasks missing", traceJSON(spans(0, 1000, ""), ring(1))},
		{"subtasks not integers", traceJSON(spans(0, 1000, "a-b"), ring(1))},
		{"subtasks not canonical", traceJSON(spans(0, 1000, "01-1"), ring(1))},
		{"subtasks skip", traceJSON(spans(0, 2000, "1-5"), ring(2))},
		{"processor span without twin", traceJSON(`,{"name":"A","ph":"X","ts":0,"dur":1000,"pid":0,"tid":0,"args":{"task":"A","subtasks":"1-1"}}`, ring(1))},
		{"twin without processor span", traceJSON(`,{"name":"CPU 0","ph":"X","ts":0,"dur":1000,"pid":1,"tid":0,"args":{"task":"A","subtasks":"1-1"}}`, ring(1))},
		{"twins disagree", traceJSON(`,{"name":"A","ph":"X","ts":0,"dur":1000,"pid":0,"tid":0,"args":{"task":"A","subtasks":"1-1"}}`+
			`,{"name":"CPU 0","ph":"X","ts":0,"dur":1000,"pid":1,"tid":0,"args":{"task":"A","subtasks":"2-2"}}`, ring(1))},
		{"twin names no CPU", traceJSON(`,{"name":"A","ph":"X","ts":0,"dur":1000,"pid":0,"tid":0,"args":{"task":"A","subtasks":"1-1"}}`+
			`,{"name":"CPU 01","ph":"X","ts":0,"dur":1000,"pid":1,"tid":0,"args":{"task":"A","subtasks":"1-1"}}`, ring(1))},
		{"span on undeclared task lane", traceJSON(`,{"name":"A","ph":"X","ts":0,"dur":1000,"pid":0,"tid":0,"args":{"task":"A","subtasks":"1-1"}}`+
			`,{"name":"CPU 0","ph":"X","ts":0,"dur":1000,"pid":1,"tid":7,"args":{"task":"A","subtasks":"1-1"}}`, ring(1))},
		{"overlapping spans", traceJSON(okSpans+
			`,{"name":"B","ph":"X","ts":1000,"dur":1000,"pid":0,"tid":0,"args":{"task":"B","subtasks":"1-1"}}`+
			`,{"name":"CPU 0","ph":"X","ts":1000,"dur":1000,"pid":1,"tid":1,"args":{"task":"B","subtasks":"1-1"}}`, ring(3))},
		{"one task on two CPUs at once", traceJSON(okSpans+spans(1, 1000, "3-3"), ring(3))},

		{"metadata without args.name", traceJSON(`,{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":2}`, ring(0))},
		{"unknown metadata", traceJSON(`,{"name":"thread_sort_index","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"x"}}`, ring(0))},
		{"lane declared twice", traceJSON(`,{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"C"}}`, ring(0))},
		{"processor lanes not dense", traceJSON(`,{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":5,"args":{"name":"CPU 5"}}`, ring(0))},
		{"task lanes not dense", traceJSON(`,{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":200000,"args":{"name":"Z"}}`, ring(0))},

		{"unknown instant", traceJSON(`,{"name":"wakeup","ph":"i","ts":0,"pid":1,"tid":0,"args":{}}`, ring(1))},
		{"release without deadline", traceJSON(`,{"name":"release","ph":"i","ts":0,"pid":1,"tid":0,"args":{"subtask":1}}`, ring(1))},
		{"release with fractional subtask", traceJSON(`,{"name":"release","ph":"i","ts":0,"pid":1,"tid":0,"args":{"subtask":1.5,"deadline":2}}`, ring(1))},
		{"migration without to", traceJSON(`,{"name":"migration","ph":"i","ts":0,"pid":1,"tid":0,"args":{"from":0,"subtask":1}}`, ring(1))},
		{"preemption off every CPU", traceJSON(`,{"name":"preemption","ph":"i","ts":0,"pid":1,"tid":0,"args":{"subtask":1,"proc":7}}`, ring(1))},
		{"instant on a processor lane", traceJSON(`,{"name":"join","ph":"i","ts":0,"pid":0,"tid":0,"args":{"cost":1,"period":2}}`, ring(1))},
		{"instant on undeclared task lane", traceJSON(`,{"name":"join","ph":"i","ts":0,"pid":1,"tid":9,"args":{"cost":1,"period":2}}`, ring(1))},
		{"instants past retainedEvents", traceJSON(`,{"name":"join","ph":"i","ts":0,"pid":1,"tid":0,"args":{"cost":1,"period":2}}`+
			`,{"name":"join","ph":"i","ts":0,"pid":1,"tid":1,"args":{"cost":1,"period":2}}`, ring(1))},
		{"tie-break by name only", traceJSON(`,{"name":"tiebreak-bbit","ph":"i","ts":0,"pid":0,"tid":1048576,"args":{"winner":"A","loser":"B","deadline":3}}`, ring(1))},
		{"tie-break loser undeclared", traceJSON(`,{"name":"tiebreak-group","ph":"i","ts":0,"pid":0,"tid":1048576,"args":{"winnerId":0,"loserId":4,"deadline":3}}`, ring(1))},
		{"tie-break on a task lane", traceJSON(`,{"name":"tiebreak-bbit","ph":"i","ts":0,"pid":1,"tid":0,"args":{"winnerId":0,"loserId":1,"deadline":3}}`, ring(1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tr, err := obs.ParseChrome(strings.NewReader(tc.json)); err == nil {
				t.Errorf("accepted, parsed %d events", len(tr.Events))
			}
		})
	}
}

// TestParseChromeInvertsWriter exports every event kind, including the
// shapes only some policies produce — a job spanning slots (subtask step
// 0), back-to-back jobs, negative subtask indices, a task id never
// registered, idle slots and Proc/B fields the format does not carry —
// and reads back exactly the carried events.
func TestParseChromeInvertsWriter(t *testing.T) {
	rec := obs.NewRecorder(256)
	rec.RegisterTask(0, "A")
	rec.RegisterTask(2, "C") // id 1 is never registered
	for _, e := range []obs.Event{
		{Slot: 0, Kind: obs.EvJoin, Task: 0, Proc: -1, A: 2, B: 3},
		{Slot: 0, Kind: obs.EvRelease, Task: 0, Proc: 3, A: 1, B: 2},
		{Slot: 0, Kind: obs.EvSchedule, Task: 0, Proc: 0, A: 1},
		{Slot: 0, Kind: obs.EvIdle, Task: -1, Proc: 1},
		{Slot: 1, Kind: obs.EvSchedule, Task: 0, Proc: 0, A: 1}, // one job, two slots
		{Slot: 2, Kind: obs.EvSchedule, Task: 0, Proc: 0, A: 2}, // the next job, back to back
		{Slot: 3, Kind: obs.EvSchedule, Task: 0, Proc: 0, A: 3},
		{Slot: 4, Kind: obs.EvSchedule, Task: 0, Proc: 0, A: 3},
		{Slot: 1, Kind: obs.EvSchedule, Task: 2, Proc: 1, A: -4, B: 9},
		{Slot: 2, Kind: obs.EvSchedule, Task: 2, Proc: 1, A: -3},
		{Slot: 3, Kind: obs.EvPreempt, Task: 2, Proc: 1, A: -2, B: 5},
		{Slot: 3, Kind: obs.EvSchedule, Task: 3, Proc: 1, A: 1}, // never registered
		{Slot: 4, Kind: obs.EvMigrate, Task: 3, Proc: 0, A: 1, B: 2},
		{Slot: 4, Kind: obs.EvTieBreakGroup, Task: 0, Proc: -1, A: 3, B: 7},
		{Slot: 4, Kind: obs.EvTieBreakB, Task: 2, Proc: -1, A: 0, B: 7},
		{Slot: 5, Kind: obs.EvMiss, Task: 0, Proc: 0, A: 3, B: 5},
		{Slot: 6, Kind: obs.EvReweight, Task: 0, Proc: -1, A: 1, B: 4},
		{Slot: 7, Kind: obs.EvLeave, Task: 2, Proc: -1, A: 2, B: 1},
	} {
		rec.Emit(e)
	}
	tr := roundTrip(t, rec, 0)
	if want := []string{"A", "task#1", "C", "task#3"}; !reflect.DeepEqual(tr.Names, want) {
		t.Errorf("names = %q, want %q", tr.Names, want)
	}
	if tr.Procs != 4 {
		t.Errorf("procs = %d, want 4 (the release's Proc 3 declares a lane)", tr.Procs)
	}
}

// TestReweightResolvedByID: core reweights by leave-and-rejoin, so the
// reweighted task's two incarnations share a name under two ids. The
// trace must hand each id its own dispatches, and the accounting
// replayed from it must equal the live one row for row.
func TestReweightResolvedByID(t *testing.T) {
	s := core.NewScheduler(2, core.PD2, core.Options{})
	rec := obs.NewRecorder(1 << 16)
	live := obs.NewAccounting()
	rec.SetAccounting(live)
	s.Observe(rec, nil)
	for _, tk := range []*task.Task{task.MustNew("T0", 1, 2), task.MustNew("T1", 1, 3), task.MustNew("T2", 1, 4)} {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join %v: %v", tk, err)
		}
	}
	s.RunUntil(120)
	if _, err := s.Submit(admission.Reweight("T2", 1, 2)); err != nil {
		t.Fatalf("reweight: %v", err)
	}
	s.RunUntil(180)
	live.Finalize(180)

	tr := roundTrip(t, rec, 2)
	got, want := replay(tr, 180), live.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed accounting differs from the live table:\n got %+v\nwant %+v", got, want)
	}
	var t2 []obs.TaskStats
	for _, row := range got {
		if row.Name == "T2" {
			t2 = append(t2, row)
		}
	}
	if len(t2) != 2 || t2[0].Dispatches != 30 || t2[1].Dispatches != 30 {
		t.Errorf("T2's incarnations dispatched %+v, want two rows of 30", t2)
	}
}

// policyRun drives one policy over a fuzz-generated churn script, to the
// case's horizon, with rec attached.
type policyRun struct {
	name  string
	kinds []fuzz.Kind
	run   func(t *testing.T, c fuzz.Case, rec *obs.Recorder)
}

func corePolicy(alg core.Algorithm) policyRun {
	return policyRun{alg.String(), []fuzz.Kind{fuzz.KindDynamic, fuzz.KindDynPlane}, func(t *testing.T, c fuzz.Case, rec *obs.Recorder) {
		s := core.NewScheduler(c.M, alg, core.Options{})
		s.Observe(rec, obs.NewSchedulerMetrics(nil))
		script := c.Script()
		for slot := int64(0); slot < c.Horizon; slot++ {
			for _, req := range script[slot] {
				s.Submit(req) // refusals are part of the script
			}
			s.Step()
		}
	}}
}

// uniPolicy drives a uniprocessor simulator under one priority rule and
// requires its trace to contain at least one dispatch.
func uniPolicy(name string, newSim func(...engine.Option) *edf.Simulator) policyRun {
	return policyRun{name, []fuzz.Kind{fuzz.KindDynPlane}, func(t *testing.T, c fuzz.Case, rec *obs.Recorder) {
		sim := newSim(engine.WithRecorder(rec))
		script := c.Script()
		for slot := int64(0); slot < c.Horizon; slot++ {
			if len(script[slot]) == 0 {
				continue
			}
			if err := sim.Engine().Run(slot); err != nil {
				t.Fatal(err)
			}
			for _, req := range script[slot] {
				sim.Submit(req)
			}
		}
		if err := sim.Run(c.Horizon); err != nil {
			t.Fatal(err)
		}
		for _, e := range rec.Events() {
			if e.Kind == obs.EvSchedule {
				return
			}
		}
		t.Errorf("%s: the trace holds no schedule events", name)
	}}
}

// TestChromeRoundTripPolicies: for every policy that takes a Recorder,
// on fuzz-generated churn (joins, leaves, reweights), the trace carries
// exactly the live events and the accounting replayed from it equals
// the live Accounting row for row. The live table also counts EvIdle in
// Events() and every event's Proc in Procs(); those two totals are not
// in the trace and are not compared. The RM rule runs on the EDF
// simulator, so its trace must carry dispatches too.
func TestChromeRoundTripPolicies(t *testing.T) {
	policies := []policyRun{
		corePolicy(core.PD2), corePolicy(core.PD), corePolicy(core.PF), corePolicy(core.EPDF),
		uniPolicy("edf", edf.NewSimulator),
		uniPolicy("rm", edf.NewRMSimulator),
		{"wrr", []fuzz.Kind{fuzz.KindDynamic, fuzz.KindDynPlane}, func(t *testing.T, c fuzz.Case, rec *obs.Recorder) {
			s, err := wrr.NewScheduler(c.M, nil, engine.WithRecorder(rec))
			if err != nil {
				t.Fatal(err)
			}
			script := c.Script()
			for slot := int64(0); slot < c.Horizon; slot++ {
				if len(script[slot]) == 0 {
					continue
				}
				if err := s.RunUntil(slot); err != nil {
					t.Fatal(err)
				}
				for _, req := range script[slot] {
					s.Submit(req)
				}
			}
			if err := s.RunUntil(c.Horizon); err != nil {
				t.Fatal(err)
			}
		}},
	}
	const trials = 8
	for _, p := range policies {
		for _, kind := range p.kinds {
			for trial := int64(0); trial < trials; trial++ {
				c := fuzz.GenCase(kind, 1, trial)
				t.Run(fmt.Sprintf("%s/%s", p.name, c.Replay()), func(t *testing.T) {
					rec := obs.NewRecorder(1 << 16)
					live := obs.NewAccounting()
					rec.SetAccounting(live)
					p.run(t, c, rec)
					if rec.Dropped() != 0 {
						t.Fatalf("ring wrapped (%d dropped); the comparison needs the whole run", rec.Dropped())
					}
					live.Finalize(c.Horizon)
					tr := roundTrip(t, rec, c.M)
					if got, want := replay(tr, c.Horizon), live.Snapshot(); !reflect.DeepEqual(got, want) {
						t.Errorf("replayed accounting differs from the live table:\n got %+v\nwant %+v", got, want)
					}
				})
			}
		}
	}
}

// FuzzParseChrome: arbitrary bytes give an error or a trace, never a
// panic, and never more events than the trace's retainedEvents (or the
// cap the fuzzer sets). The seeded writer output parses to exactly its
// recorder's carried events. And what ParseChrome accepts, the writer
// writes back and ParseChrome reads again unchanged.
func FuzzParseChrome(f *testing.F) {
	f.Add([]byte(traceJSON(spans(-1, 1000, "1-1"), ring(1))))
	f.Add([]byte(traceJSON(spans(200000, 1000, "1-1"), ring(1))))
	f.Add([]byte(traceJSON(spans(0, 5000*1000, "1-1"), ring(2))))
	written := map[string][]obs.Event{} // writer output → its recorder's carried events
	for _, rec := range []struct {
		rec   *obs.Recorder
		procs int
	}{
		{coreRecorder(f, core.PD2, 2, quickstartSet(), 24), 2},
		{coreRecorder(f, core.EPDF, 5, epdfCounterexample(), 180), 5},
		{coreRecorder(f, core.PD2, 5, epdfCounterexample(), 30), 5},
	} {
		data := export(f, rec.rec, rec.procs)
		written[string(data)] = carried(rec.rec.Events())
		f.Add(data)
	}
	const limit = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := obs.ParseChromeCapped(bytes.NewReader(data), limit)
		if want, ok := written[string(data)]; ok && (err != nil || !reflect.DeepEqual(tr.Events, want)) {
			t.Fatalf("writer output did not parse to its recorder's events (err %v)", err)
		}
		if err != nil {
			return
		}
		if n := int64(len(tr.Events)); n > tr.Retained || n > limit {
			t.Fatalf("%d events from a trace that retained %d", n, tr.Retained)
		}
		rec := obs.NewRecorder(len(tr.Events) + 1)
		for id, name := range tr.Names {
			rec.RegisterTask(int32(id), name)
		}
		for _, e := range tr.Events {
			rec.Emit(e)
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, rec, obs.ChromeTraceOptions{SlotMicros: tr.SlotMicros, Procs: tr.Procs}); err != nil {
			t.Fatal(err)
		}
		back, err := obs.ParseChrome(&buf)
		if err != nil {
			t.Fatalf("writer output rejected: %v", err)
		}
		if !reflect.DeepEqual(back.Events, tr.Events) || !reflect.DeepEqual(back.Names, tr.Names) || back.Procs != tr.Procs {
			t.Fatalf("rewritten trace reads back differently:\n got %v %q %d\nwant %v %q %d",
				back.Events, back.Names, back.Procs, tr.Events, tr.Names, tr.Procs)
		}
	})
}
