package obs

import (
	"strings"
	"testing"
)

// feed applies a canned event stream for a single task of weight 2/5
// joining at slot 0: releases at 0 and 2, dispatches at slots 1 and 3 on
// different CPUs, a preemption, and a miss detected at slot 6.
func feedCanned(a *Accounting) {
	a.SetName(0, "A")
	for _, e := range []Event{
		{Slot: 0, Kind: EvJoin, Task: 0, Proc: -1, A: 2, B: 5},
		{Slot: 0, Kind: EvRelease, Task: 0, Proc: -1, A: 1, B: 3},
		{Slot: 1, Kind: EvSchedule, Task: 0, Proc: 0, A: 1},
		{Slot: 2, Kind: EvRelease, Task: 0, Proc: -1, A: 2, B: 5},
		{Slot: 3, Kind: EvSchedule, Task: 0, Proc: 1, A: 2},
		{Slot: 4, Kind: EvPreempt, Task: 0, Proc: 1, A: 3},
		{Slot: 6, Kind: EvMiss, Task: 0, Proc: -1, A: 3, B: 5},
	} {
		a.Apply(e)
	}
}

func TestAccountingAggregates(t *testing.T) {
	a := NewAccounting()
	feedCanned(a)
	a.Finalize(10)

	snap := a.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("Snapshot has %d rows, want 1", len(snap))
	}
	ts := snap[0]
	if ts.Name != "A" || ts.Cost != 2 || ts.Period != 5 {
		t.Errorf("identity row wrong: %+v", ts)
	}
	if ts.Dispatches != 2 || ts.Releases != 2 || ts.Preemptions != 1 || ts.Misses != 1 {
		t.Errorf("counts wrong: %+v", ts)
	}
	if ts.Migrations != 1 {
		t.Errorf("CPU 0 → CPU 1 must count one migration, got %d", ts.Migrations)
	}
	if len(ts.PerCPU) != 2 || ts.PerCPU[0] != 1 || ts.PerCPU[1] != 1 {
		t.Errorf("PerCPU = %v, want [1 1]", ts.PerCPU)
	}
	// Subtask 1: released slot 0, ran slot 1 → response 2. Subtask 2:
	// released slot 2, ran slot 3 → response 2.
	if ts.RespCount != 2 || ts.RespSum != 4 || ts.RespMax != 2 {
		t.Errorf("response aggregates wrong: count %d sum %d max %d", ts.RespCount, ts.RespSum, ts.RespMax)
	}
	// Miss detected in slot 6 against deadline 5: tardiness 6+1−5 = 2.
	if ts.MaxTardiness != 2 {
		t.Errorf("MaxTardiness = %d, want 2", ts.MaxTardiness)
	}
	if a.procs != 2 {
		t.Errorf("procs = %d, want 2", a.procs)
	}
}

// TestAccountingLagExtrema pins the exact lag arithmetic: for weight 2/5
// with dispatches at slots 1 and 3, lag(τ)·5 = 2τ − 5·dispatched(τ). The
// boundary candidates are 0 (join), 2 (before the slot-1 dispatch), −1
// (after it), 1 (before the slot-3 dispatch), −2 (after it): extrema
// [−2,2]. Finalize at a late horizon then raises the max as lag grows
// linearly with no further dispatches.
func TestAccountingLagExtrema(t *testing.T) {
	a := NewAccounting()
	feedCanned(a)
	if ts := a.Snapshot()[0]; ts.LagMaxNum != 2 || ts.LagMinNum != -2 || ts.LagDen != 5 {
		t.Errorf("pre-finalize extrema [%d,%d]/%d, want [-2,2]/5", ts.LagMinNum, ts.LagMaxNum, ts.LagDen)
	}
	a.Finalize(10)
	// lag(10)·5 = 2·10 − 2·5 = 10.
	if ts := a.Snapshot()[0]; ts.LagMaxNum != 10 {
		t.Errorf("post-finalize LagMaxNum = %d, want 10", ts.LagMaxNum)
	}
	// Finalize is idempotent for a fixed horizon.
	a.Finalize(10)
	if ts := a.Snapshot()[0]; ts.LagMaxNum != 10 {
		t.Errorf("Finalize not idempotent: LagMaxNum = %d", ts.LagMaxNum)
	}
}

// TestAccountingViaRecorder: SetAccounting must see every emitted event —
// including the ones a wrapping ring drops — and RegisterTask must
// forward names both ways across the attach.
func TestAccountingViaRecorder(t *testing.T) {
	rec := NewRecorder(4) // tiny ring: wraps immediately
	rec.RegisterTask(0, "before")
	acct := NewAccounting()
	rec.SetAccounting(acct)
	rec.RegisterTask(1, "after")
	for i := int64(0); i < 10; i++ {
		rec.Emit(Event{Slot: i, Kind: EvSchedule, Task: 0, Proc: 0, A: i + 1})
	}
	if rec.Dropped() != 6 {
		t.Fatalf("ring of 4 kept %d of 10: dropped %d, want 6", len(rec.Events()), rec.Dropped())
	}
	if acct.Events() != 10 {
		t.Errorf("accounting consumed %d events, want all 10 despite the wrap", acct.Events())
	}
	snap := acct.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot has %d rows, want 2 (both registered tasks)", len(snap))
	}
	if snap[0].Name != "before" || snap[1].Name != "after" {
		t.Errorf("names not forwarded across attach: %q, %q", snap[0].Name, snap[1].Name)
	}
	if snap[0].Dispatches != 10 {
		t.Errorf("dispatches = %d, want 10", snap[0].Dispatches)
	}
}

func TestAccountingLeave(t *testing.T) {
	a := NewAccounting()
	a.Apply(Event{Slot: 0, Kind: EvJoin, Task: 0, Proc: -1, A: 1, B: 2})
	a.Apply(Event{Slot: 0, Kind: EvSchedule, Task: 0, Proc: 0, A: 1})
	a.Apply(Event{Slot: 4, Kind: EvLeave, Task: 0, Proc: -1, A: 1})
	ts := a.Snapshot()[0]
	if !ts.Left || ts.LeaveSlot != 4 {
		t.Errorf("leave not recorded: %+v", ts)
	}
	// lag(4)·2 = 1·4 − 1·2 = 2, folded by the leave itself.
	if ts.LagMaxNum != 2 {
		t.Errorf("leave did not fold the trailing lag candidate: max %d, want 2", ts.LagMaxNum)
	}
	// Finalize must not extend a departed task past its leave.
	a.Finalize(100)
	if got := a.Snapshot()[0].LagMaxNum; got != 2 {
		t.Errorf("Finalize moved a departed task's extremum to %d", got)
	}
}

// TestAccountingPrometheus checks the exposition: task and cpu labels,
// families disjoint from SchedulerMetrics', escaping of hostile task
// names.
func TestAccountingPrometheus(t *testing.T) {
	a := NewAccounting()
	feedCanned(a)
	a.SetName(0, "evil\"name\\with\nstuff")
	var b strings.Builder
	if err := a.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`pfair_acct_dispatches_total{task="evil\"name\\with\nstuff",cpu="0"} 1`,
		`pfair_acct_dispatches_total{task="evil\"name\\with\nstuff",cpu="1"} 1`,
		`pfair_acct_releases_total{task="evil\"name\\with\nstuff"} 2`,
		`pfair_acct_deadline_misses_total`,
		`pfair_acct_lag_max_num`,
		"# TYPE pfair_acct_dispatches_total counter",
		"# TYPE pfair_acct_lag_min_num gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One endpoint serves both: no family is shared with the
	// scheduler-wide block.
	for _, s := range NewSchedulerMetrics(nil).Registry().Snapshot() {
		if strings.Contains(out, "# TYPE "+s.Family+" ") {
			t.Errorf("accounting exposition reuses the scheduler family %s", s.Family)
		}
	}
}

func TestWriteTaskTableRendering(t *testing.T) {
	a := NewAccounting()
	feedCanned(a)
	a.Apply(Event{Slot: 8, Kind: EvJoin, Task: 1, Proc: -1, A: 1, B: 3})
	a.Apply(Event{Slot: 9, Kind: EvLeave, Task: 1, Proc: -1, A: 0})
	a.SetName(1, "B")
	var b strings.Builder
	if err := WriteTaskTable(&b, a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "A") || !strings.Contains(out, "2/5") {
		t.Errorf("table missing task A identity:\n%s", out)
	}
	if !strings.Contains(out, "B†") {
		t.Errorf("departed task not marked with †:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("table has %d lines, want header + 2 rows", lines)
	}
}
