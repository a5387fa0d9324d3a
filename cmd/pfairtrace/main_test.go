package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// traceOf runs a scheduler over set and returns the Chrome trace JSON a
// pfairsim -trace -metrics invocation would write, plus the scheduler
// and its published metrics block for cross-checking the report
// against ground truth.
func traceOf(t testing.TB, alg core.Algorithm, m int, set task.Set, horizon int64, ringCap int) ([]byte, *core.Scheduler, *obs.SchedulerMetrics) {
	t.Helper()
	s := core.NewScheduler(m, alg, core.Options{})
	rec := obs.NewRecorder(ringCap)
	rec.SetAccounting(obs.NewAccounting())
	met := obs.NewSchedulerMetrics(nil)
	s.Observe(rec, met)
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join %v: %v", tk, err)
		}
	}
	s.RunUntil(horizon)
	s.FinishMisses(horizon)
	s.PublishMetrics()
	var buf bytes.Buffer
	err := obs.WriteChromeTrace(&buf, rec, obs.ChromeTraceOptions{
		Procs: m,
		Extra: map[string]any{"alg": alg.String(), "m": m},
	})
	if err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return buf.Bytes(), s, met
}

// report parses a trace and builds its report with k = 2.
func report(data []byte) (*Report, error) {
	tr, err := obs.ParseChrome(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return buildReport(tr, 2)
}

// epdfCounterexample is the pinned workload on which EPDF misses a
// deadline (full utilization on 5 processors).
func epdfCounterexample(t testing.TB) task.Set {
	t.Helper()
	return task.Set{
		task.MustNew("T0", 4, 9), task.MustNew("T1", 3, 6), task.MustNew("T2", 1, 2),
		task.MustNew("T3", 8, 9), task.MustNew("T4", 6, 10), task.MustNew("T5", 3, 6),
		task.MustNew("T6", 9, 10), task.MustNew("T7", 2, 3),
	}
}

// TestRoundTripAccounting checks the reconstructed report against the
// scheduler that produced the trace: the trace must round-trip the
// dispatch totals, migrations, and (absence of) misses exactly.
func TestRoundTripAccounting(t *testing.T) {
	set := task.Set{task.MustNew("A", 2, 3), task.MustNew("B", 2, 3), task.MustNew("C", 2, 3)}
	data, s, _ := traceOf(t, core.PD2, 2, set, 120, 1<<16)

	rep, err := report(data)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	st := s.Stats()

	var dispatches, migrations int64
	for _, ts := range rep.Tasks {
		dispatches += ts.Dispatches
		migrations += ts.Migrations
	}
	if dispatches != st.Allocations {
		t.Errorf("report dispatches = %d, scheduler allocated %d", dispatches, st.Allocations)
	}
	if migrations != st.Migrations {
		t.Errorf("report migrations = %d, scheduler counted %d", migrations, st.Migrations)
	}
	var matrixTotal int64
	for _, m := range rep.Migrations {
		matrixTotal += m.Count
	}
	if matrixTotal != st.Migrations {
		t.Errorf("migration matrix sums to %d, scheduler counted %d", matrixTotal, st.Migrations)
	}
	if len(rep.Misses) != 0 {
		t.Errorf("feasible PD² run reported %d misses", len(rep.Misses))
	}
	if rep.Procs != 2 {
		t.Errorf("procs = %d, want 2", rep.Procs)
	}
	if rep.Ring.DroppedEvents != 0 {
		t.Errorf("complete trace reported %d dropped events", rep.Ring.DroppedEvents)
	}

	var human bytes.Buffer
	if err := renderHuman(&human, rep); err != nil {
		t.Fatalf("renderHuman: %v", err)
	}
	for _, want := range []string{"per-task accounting", "migration matrix", "no deadline misses", "A", "trace is complete"} {
		if !strings.Contains(human.String(), want) {
			t.Errorf("human report missing %q", want)
		}
	}
}

// TestMissWindowNamesTask: on the EPDF counterexample the report must
// name the missing task, include the surrounding events, and reconstruct
// the deadline ties with b-bit/group-deadline narration.
func TestMissWindowNamesTask(t *testing.T) {
	set := epdfCounterexample(t)
	data, s, _ := traceOf(t, core.EPDF, 5, set, 180, 1<<16)
	// Only misses detected during the run emit EvMiss; FinishMisses adds
	// horizon-boundary entries (ScheduledAt −1) the trace cannot carry.
	var traced []core.Miss
	for _, m := range s.Stats().Misses {
		if m.ScheduledAt >= 0 {
			traced = append(traced, m)
		}
	}
	if len(traced) == 0 {
		t.Fatal("EPDF counterexample no longer misses; test needs a new workload")
	}
	wantTask := s.Name(traced[0].Task)

	rep, err := report(data)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	if len(rep.Misses) != len(traced) {
		t.Fatalf("report has %d misses, scheduler detected %d during the run", len(rep.Misses), len(traced))
	}
	m := rep.Misses[0]
	if m.Task != wantTask {
		t.Errorf("miss window names %q, scheduler missed %q", m.Task, wantTask)
	}
	if len(m.Window) == 0 {
		t.Error("miss window has no events")
	}
	if len(m.Ties) == 0 {
		t.Fatal("miss window has no deadline-tie reconstruction")
	}
	foundBBit := false
	for _, tie := range m.Ties {
		for _, line := range tie.Tasks {
			if strings.Contains(line, "b-bit") {
				foundBBit = true
			}
		}
	}
	if !foundBBit {
		t.Error("tie reconstruction carries no b-bit narration")
	}

	var human bytes.Buffer
	if err := renderHuman(&human, rep); err != nil {
		t.Fatalf("renderHuman: %v", err)
	}
	out := human.String()
	for _, want := range []string{"DEADLINE MISS " + wantTask, "b-bit", "group deadline"} {
		if !strings.Contains(out, want) {
			t.Errorf("human report missing %q", want)
		}
	}
}

// TestChurnRoundTrip: a run with mid-run join, reweight, and leave must
// surface its admission-plane activity in the report — counts, a
// narrated timeline, and the reweighted task's pattern picked up for
// forensics — and the human output must carry the churn section.
func TestChurnRoundTrip(t *testing.T) {
	s := core.NewScheduler(2, core.PD2, core.Options{})
	rec := obs.NewRecorder(1 << 16)
	live := obs.NewAccounting()
	rec.SetAccounting(live)
	s.Observe(rec, nil)
	for _, tk := range []*task.Task{task.MustNew("A", 1, 2), task.MustNew("B", 1, 3)} {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join %v: %v", tk, err)
		}
	}
	s.RunUntil(24)
	if err := s.Join(task.MustNew("C", 1, 4)); err != nil {
		t.Fatalf("mid-run join: %v", err)
	}
	if _, err := s.Submit(admission.Reweight("B", 1, 2)); err != nil {
		t.Fatalf("reweight: %v", err)
	}
	s.RunUntil(48)
	if _, err := s.Submit(admission.Leave("C")); err != nil {
		t.Fatalf("leave: %v", err)
	}
	s.RunUntil(96)
	s.FinishMisses(96)

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec, obs.ChromeTraceOptions{Procs: 2}); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	rep, err := report(buf.Bytes())
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	if rep.Churn == nil {
		t.Fatal("report has no churn section despite mid-run operations")
	}
	// B's two incarnations share a name; the report must keep their rows
	// apart exactly as the live table does.
	live.Finalize(rep.Slots)
	if want := live.Snapshot(); !reflect.DeepEqual(rep.Tasks, want) {
		t.Errorf("report accounting differs from the live table:\n got %+v\nwant %+v", rep.Tasks, want)
	}
	// Core reweight is leave-and-rejoin: B's new incarnation adds one
	// join and one leave beyond the explicit operations.
	if rep.Churn.Reweights != 1 {
		t.Errorf("churn reweights = %d, want 1", rep.Churn.Reweights)
	}
	if rep.Churn.Joins < 3 || rep.Churn.Leaves < 1 {
		t.Errorf("churn joins/leaves = %d/%d, want at least 3/1", rep.Churn.Joins, rep.Churn.Leaves)
	}
	var sawReweight bool
	for _, line := range rep.Churn.Timeline {
		if strings.Contains(line, "reweight") && strings.Contains(line, "B") {
			sawReweight = true
		}
	}
	if !sawReweight {
		t.Errorf("churn timeline does not narrate B's reweight: %q", rep.Churn.Timeline)
	}

	var human bytes.Buffer
	if err := renderHuman(&human, rep); err != nil {
		t.Fatalf("renderHuman: %v", err)
	}
	for _, want := range []string{"dynamic-task churn", "reweight"} {
		if !strings.Contains(human.String(), want) {
			t.Errorf("human report missing %q", want)
		}
	}
}

// TestRingWrapSurfaced: a trace whose ring wrapped must carry the drop
// count through to the report and the human output must warn.
func TestRingWrapSurfaced(t *testing.T) {
	set := epdfCounterexample(t)
	data, _, _ := traceOf(t, core.EPDF, 5, set, 180, 1<<8)

	rep, err := report(data)
	if err != nil {
		t.Fatalf("buildReport: %v", err)
	}
	if rep.Ring.DroppedEvents == 0 {
		t.Fatal("256-event ring over a 180-slot, 8-task run did not wrap; test premise broken")
	}
	if rep.Ring.TotalEvents != rep.Ring.RetainedEvents+rep.Ring.DroppedEvents {
		t.Errorf("ring accounting inconsistent: total %d != retained %d + dropped %d",
			rep.Ring.TotalEvents, rep.Ring.RetainedEvents, rep.Ring.DroppedEvents)
	}
	var human bytes.Buffer
	if err := renderHuman(&human, rep); err != nil {
		t.Fatalf("renderHuman: %v", err)
	}
	if !strings.Contains(human.String(), "WARNING: ring wrapped") {
		t.Error("human report does not warn about the wrapped ring")
	}
}

// TestRejectsNonTraces: garbage and schedule-free inputs must error, not
// produce empty reports.
func TestRejectsNonTraces(t *testing.T) {
	if _, err := report([]byte("not json")); err == nil {
		t.Error("accepted garbage")
	}
	var buf bytes.Buffer
	rec := obs.NewRecorder(16)
	rec.RegisterTask(0, "A")
	if err := obs.WriteChromeTrace(&buf, rec, obs.ChromeTraceOptions{Procs: 1}); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	tr, err := obs.ParseChrome(&buf)
	if err != nil {
		t.Fatalf("ParseChrome on a schedule-free trace: %v", err)
	}
	if _, err := buildReport(tr, 2); err == nil {
		t.Error("buildReport accepted a trace with no schedule events")
	}
}

// badJoinTrace is a one-task trace whose join declares cost 5 over
// period 3 (weight above 1), followed by one dispatch.
func badJoinTrace(t testing.TB, kind obs.EventKind) []byte {
	t.Helper()
	rec := obs.NewRecorder(16)
	rec.RegisterTask(0, "A")
	rec.Emit(obs.Event{Slot: 0, Kind: obs.EvJoin, Task: 0, Proc: -1, A: 1, B: 3})
	rec.Emit(obs.Event{Slot: 1, Kind: kind, Task: 0, Proc: -1, A: 5, B: 3})
	rec.Emit(obs.Event{Slot: 1, Kind: obs.EvSchedule, Task: 0, Proc: 0, A: 1})
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec, obs.ChromeTraceOptions{Procs: 1}); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	return buf.Bytes()
}

// TestRejectsInvalidJoin: a join or reweight with cost > period is a
// report error naming the event, not a panic in the window pattern.
func TestRejectsInvalidJoin(t *testing.T) {
	for _, kind := range []obs.EventKind{obs.EvJoin, obs.EvReweight} {
		_, err := report(badJoinTrace(t, kind))
		if err == nil || !strings.Contains(err.Error(), obs.ChromeName(kind)) {
			t.Errorf("%s with cost 5, period 3: err = %v, want an error naming the event", obs.ChromeName(kind), err)
		}
	}
}

// FuzzBuildReport: whatever obs.ParseChrome accepts, buildReport and the
// human renderer answer with a report or an error, never a panic. Inputs
// whose otherData claims more than maxFuzzEvents retained events are
// skipped: ParseChrome would honestly expand a few bytes of span into
// that many events, and the fuzzer's memory is not the thing under test.
func FuzzBuildReport(f *testing.F) {
	const maxFuzzEvents = 1 << 12
	f.Add(badJoinTrace(f, obs.EvJoin))
	f.Add(badJoinTrace(f, obs.EvReweight))
	data, _, _ := traceOf(f, core.EPDF, 5, epdfCounterexample(f), 92, 1<<12) // T7 misses at 90
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		var head struct {
			OtherData map[string]any `json:"otherData"`
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		if dec.Decode(&head) != nil {
			return
		}
		n, ok := head.OtherData["retainedEvents"].(json.Number)
		if retained, err := n.Int64(); !ok || err != nil || retained > maxFuzzEvents {
			return
		}
		tr, err := obs.ParseChrome(bytes.NewReader(data))
		if err != nil {
			return
		}
		rep, err := buildReport(tr, 2)
		if err != nil {
			return
		}
		if err := renderHuman(io.Discard, rep); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRequireCountsEvents: -require passes exactly when every named
// event kind appears, and the per-kind counts equal the trace's.
func TestRequireCountsEvents(t *testing.T) {
	data, s, met := traceOf(t, core.PD2, 5, epdfCounterexample(t), 90, 1<<16)
	rep, err := report(data)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if got, want := int64(rep.Events["tiebreak-bbit"]), met.TieBreakB.Value(); got != want || got == 0 {
		t.Errorf("tiebreak-bbit count = %d, live accounting counted %d", got, want)
	}
	if got, want := int64(rep.Events["schedule"]), s.Stats().Allocations; got != want {
		t.Errorf("schedule count = %d, scheduler allocated %d", got, want)
	}
	if err := checkRequired(rep, "release, migration,tiebreak-bbit"); err != nil {
		t.Errorf("checkRequired on present events: %v", err)
	}
	if err := checkRequired(rep, "release,deadline-miss"); err == nil {
		t.Error("checkRequired passed a PD² run without deadline-miss events")
	}
	var human bytes.Buffer
	if err := renderHuman(&human, rep); err != nil {
		t.Fatalf("renderHuman: %v", err)
	}
	if want := fmt.Sprintf(" tiebreak-bbit:%d", rep.Events["tiebreak-bbit"]); !strings.Contains(human.String(), want) {
		t.Errorf("human report has no events line with %q", want)
	}
}

// TestManyLanesSparseMatrix: a small file that declares 1<<15 processor
// lanes must cost memory linear in the file, not in the square of its
// lanes (a dense matrix would be 8 GiB), and the matrix keeps exactly
// the cells the task's dispatches moved along.
func TestManyLanesSparseMatrix(t *testing.T) {
	const lanes = 1 << 15
	rec := obs.NewRecorder(64)
	rec.RegisterTask(0, "A")
	for slot, cpu := range []int32{0, lanes - 1, 5, lanes - 1} {
		rec.Emit(obs.Event{Kind: obs.EvSchedule, Slot: int64(slot), Task: 0, Proc: cpu, A: int64(slot) + 1})
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec, obs.ChromeTraceOptions{Procs: lanes}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := report(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var human bytes.Buffer
	if err := renderHuman(&human, rep); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if rep.Procs != lanes {
		t.Fatalf("procs = %d, want %d", rep.Procs, lanes)
	}
	want := []Migration{{0, lanes - 1, 1}, {5, lanes - 1, 1}, {lanes - 1, 5, 1}}
	if !reflect.DeepEqual(rep.Migrations, want) {
		t.Errorf("migrations = %v, want %v", rep.Migrations, want)
	}
	// Linear budget: the parse itself allocates per declared lane; allow
	// a generous 64 times the file's size for parse, report and text.
	if used, budget := after.TotalAlloc-before.TotalAlloc, uint64(64*buf.Len()); used > budget {
		t.Errorf("parse+report+render of a %d-byte file allocated %d bytes, budget %d", buf.Len(), used, budget)
	}
	if !strings.Contains(human.String(), fmt.Sprintf("CPU 5 → CPU %d: 1", lanes-1)) {
		t.Errorf("human report lacks the 5 → %d cell:\n%s", lanes-1, human.String())
	}
}
