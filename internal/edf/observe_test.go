package edf

import (
	"testing"

	"pfair/internal/obs"
	"pfair/internal/task"
)

// TestSimulatorRecorder: the event-driven EDF trace mirrors the
// simulator's statistics — one release per job, one schedule per context
// switch, one preempt per preemption, one miss per recorded miss — and
// attaching the recorder does not change the schedule.
func TestSimulatorRecorder(t *testing.T) {
	build := func(rec *obs.Recorder) *Simulator {
		s := NewSimulator()
		s.SetRecorder(rec)
		mustAdd(t, s,
			Config{
				Task:       task.MustNew("rogue", 2, 10),
				ActualCost: func(int64) int64 { return 8 },
			},
			Config{Task: task.MustNew("victim", 5, 10)},
			Config{Task: task.MustNew("bg", 1, 7)},
		)
		s.Run(200)
		return s
	}
	rec := obs.NewRecorder(1 << 14)
	s := build(rec)
	plain := build(nil)

	if ps, os := plain.Stats(), s.Stats(); ps.Jobs != os.Jobs || ps.Preemptions != os.Preemptions ||
		ps.ContextSwitches != os.ContextSwitches || len(ps.Misses) != len(os.Misses) {
		t.Fatalf("observation changed the run: %+v vs %+v", ps, os)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring too small: dropped %d", rec.Dropped())
	}

	counts := make(map[obs.EventKind]int64)
	for _, e := range rec.Events() {
		counts[e.Kind]++
		if e.Kind != obs.EvJoin && e.Kind != obs.EvRelease && e.Proc != 0 {
			t.Fatalf("uniprocessor event off lane 0: %+v", e)
		}
	}
	st := s.Stats()
	if counts[obs.EvJoin] != 3 {
		t.Errorf("EvJoin = %d, want 3", counts[obs.EvJoin])
	}
	if counts[obs.EvRelease] != st.Jobs {
		t.Errorf("EvRelease = %d, Jobs = %d", counts[obs.EvRelease], st.Jobs)
	}
	if counts[obs.EvSchedule] != st.ContextSwitches {
		t.Errorf("EvSchedule = %d, ContextSwitches = %d", counts[obs.EvSchedule], st.ContextSwitches)
	}
	if counts[obs.EvPreempt] != st.Preemptions {
		t.Errorf("EvPreempt = %d, Preemptions = %d", counts[obs.EvPreempt], st.Preemptions)
	}
	if counts[obs.EvMiss] != int64(len(st.Misses)) {
		t.Errorf("EvMiss = %d, Misses = %d", counts[obs.EvMiss], len(st.Misses))
	}
	if counts[obs.EvMiss] == 0 {
		t.Error("overrun workload produced no miss events")
	}
	if s.Engine().Recorder() != rec {
		t.Error("SetRecorder did not attach the recorder to the engine")
	}

	// Attaching after Add must register the already-added tasks too.
	late := NewSimulator()
	mustAdd(t, late, Config{Task: task.MustNew("solo", 1, 4)})
	rec2 := obs.NewRecorder(1 << 10)
	late.SetRecorder(rec2)
	if got := rec2.TaskName(0); got != "solo" {
		t.Errorf("late-attached recorder knows task as %q, want solo", got)
	}
	late.Run(40)
	if rec2.Total() == 0 {
		t.Error("no events after late attach")
	}
}
