package engine_test

// Dynamic-plane equivalence suite: the unified admission plane (Submit)
// and each policy's legacy entry points are two doors into the same
// transaction, so driving the identical churn script through either must
// produce identical observable output — assignment streams, counters,
// miss lists, and admission ledgers. `make dyn-equiv` runs exactly this
// suite; it is the executable form of the refactor's "thin shim" claim,
// policy by policy.

import (
	"reflect"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/edf"
	"pfair/internal/supertask"
	"pfair/internal/task"
	"pfair/internal/verify"
	"pfair/internal/wrr"
)

// TestDynEquivCore: Join/Reweight/Leave vs Submit on PD², including
// mid-run operations, must agree on the schedule, the stats, and the
// ledger (the legacy names are shims over Submit; this pins it).
func TestDynEquivCore(t *testing.T) {
	set := task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 2, 3), task.MustNew("C", 1, 4)}
	joiner := task.MustNew("D", 1, 5)
	const horizon = 120

	run := func(plane bool) ([]verify.Slot, core.Stats, int, int64) {
		s := core.NewScheduler(2, core.PD2, core.Options{})
		rec := &verify.Recorder{}
		s.OnSlot(rec.Record)
		join := func(tk *task.Task) error {
			if plane {
				_, err := s.Submit(admission.Join(tk))
				return err
			}
			return s.Join(tk)
		}
		for _, tk := range set {
			if err := join(tk); err != nil {
				t.Fatalf("join %v: %v", tk, err)
			}
		}
		s.RunUntil(30)
		if err := join(joiner); err != nil {
			t.Fatalf("mid-run join: %v", err)
		}
		var err error
		if plane {
			_, err = s.Submit(admission.Reweight("C", 1, 2))
		} else {
			_, err = s.Reweight("C", 1, 2)
		}
		if err != nil {
			t.Fatalf("reweight: %v", err)
		}
		s.RunUntil(60)
		if plane {
			_, err = s.Submit(admission.Leave("B"))
		} else {
			_, err = s.Leave("B")
		}
		if err != nil {
			t.Fatalf("leave: %v", err)
		}
		s.RunUntil(horizon)
		s.FinishMisses(horizon)
		return rec.Slots, s.Stats(), len(s.AdmissionLog()), s.AdmissionRejects()
	}

	lSlots, lStats, lLedger, lRejects := run(false)
	pSlots, pStats, pLedger, pRejects := run(true)
	if !reflect.DeepEqual(lSlots, pSlots) {
		t.Errorf("core: legacy and Submit schedules diverge")
	}
	if !reflect.DeepEqual(lStats, pStats) {
		t.Errorf("core: stats diverge: legacy %+v, Submit %+v", lStats, pStats)
	}
	if lLedger != pLedger || lRejects != pRejects {
		t.Errorf("core: ledger diverges: legacy %d/%d, Submit %d/%d", lLedger, lRejects, pLedger, pRejects)
	}
	if lStats.Misses != nil {
		t.Errorf("core: %d misses under a feasible script", len(lStats.Misses))
	}
}

// TestDynEquivEDF: Add vs Submit-join on the EDF simulator — at
// construction time and mid-run — must produce identical runs; Submit
// only layers the Σ bandwidth ≤ 1 gate on top.
func TestDynEquivEDF(t *testing.T) {
	set := task.Set{task.MustNew("X", 1, 4), task.MustNew("Y", 2, 5)}
	joiner := task.MustNew("Z", 1, 6)
	const horizon = 240

	run := func(plane bool) edf.Stats {
		sim := edf.NewSimulator()
		join := func(tk *task.Task) error {
			if plane {
				_, err := sim.Submit(admission.Join(tk))
				return err
			}
			return sim.Add(edf.Config{Task: tk})
		}
		for _, tk := range set {
			if err := join(tk); err != nil {
				t.Fatalf("join %v: %v", tk, err)
			}
		}
		if err := sim.Engine().Run(40); err != nil {
			t.Fatalf("run: %v", err)
		}
		if err := join(joiner); err != nil {
			t.Fatalf("mid-run join: %v", err)
		}
		if err := sim.Run(horizon); err != nil {
			t.Fatalf("run: %v", err)
		}
		return sim.Stats()
	}

	legacy, planeStats := run(false), run(true)
	if !reflect.DeepEqual(legacy, planeStats) {
		t.Errorf("edf: stats diverge: legacy %+v, Submit %+v", legacy, planeStats)
	}
}

// TestDynEquivRM: a constructor-time set vs the same set joined through
// Submit at time zero must run identically under the fixed-priority
// simulator.
func TestDynEquivRM(t *testing.T) {
	set := task.Set{task.MustNew("R1", 1, 4), task.MustNew("R2", 1, 5), task.MustNew("R3", 2, 9)}
	const horizon = 360

	legacy := edf.NewRMSimulator()
	for _, tk := range set {
		if err := legacy.Add(edf.Config{Task: tk}); err != nil {
			t.Fatalf("add %v: %v", tk, err)
		}
	}
	if err := legacy.Run(horizon); err != nil {
		t.Fatalf("legacy run: %v", err)
	}

	plane := edf.NewRMSimulator()
	for _, tk := range set {
		if _, err := plane.Submit(admission.Join(tk)); err != nil {
			t.Fatalf("join %v: %v", tk, err)
		}
	}
	if err := plane.Run(horizon); err != nil {
		t.Fatalf("plane run: %v", err)
	}

	if !reflect.DeepEqual(legacy.Stats(), plane.Stats()) {
		t.Errorf("rm: stats diverge: legacy %+v, Submit %+v", legacy.Stats(), plane.Stats())
	}
}

// TestDynEquivWRR: a constructor-time queue vs the same tasks joined
// through Submit before the first slot must produce the identical
// allocation stream (ids, lattice anchors, and queue order all match).
func TestDynEquivWRR(t *testing.T) {
	set := task.Set{task.MustNew("W1", 1, 3), task.MustNew("W2", 2, 5), task.MustNew("W3", 1, 2)}
	const horizon = 90

	run := func(plane bool) ([][]string, wrr.Stats) {
		var s *wrr.Scheduler
		var err error
		if plane {
			s, err = wrr.NewScheduler(2, nil)
		} else {
			s, err = wrr.NewScheduler(2, set)
		}
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		var slots [][]string
		s.OnSlot(func(t int64, allocated []string) {
			slots = append(slots, append([]string(nil), allocated...))
		})
		if plane {
			for _, tk := range set {
				if _, err := s.Submit(admission.Join(tk)); err != nil {
					t.Fatalf("join %v: %v", tk, err)
				}
			}
		}
		if err := s.RunUntil(horizon); err != nil {
			t.Fatalf("run: %v", err)
		}
		return slots, s.Stats()
	}

	lSlots, lStats := run(false)
	pSlots, pStats := run(true)
	if !reflect.DeepEqual(lSlots, pSlots) {
		t.Errorf("wrr: legacy and Submit allocation streams diverge")
	}
	if !reflect.DeepEqual(lStats, pStats) {
		t.Errorf("wrr: stats diverge: legacy %+v, Submit %+v", lStats, pStats)
	}
}

// TestDynEquivSupertask: AddTask/AddSupertask vs Submit with a plain
// join and a JoinRequest bundle — both mid-run — must produce identical
// Results (global stats, served/wasted quanta, component misses).
func TestDynEquivSupertask(t *testing.T) {
	ordinary := task.MustNew("A", 1, 3)
	st := &supertask.Supertask{Name: "S", Components: task.Set{
		task.MustNew("c1", 1, 4), task.MustNew("c2", 1, 6),
	}}
	const horizon = 120

	run := func(plane bool) supertask.Result {
		sys := supertask.NewSystem(2, core.PD2)
		if plane {
			if _, err := sys.Submit(admission.Join(ordinary)); err != nil {
				t.Fatalf("join: %v", err)
			}
		} else if err := sys.AddTask(ordinary); err != nil {
			t.Fatalf("add task: %v", err)
		}
		sys.Run(30)
		if plane {
			req, err := supertask.JoinRequest(st, true)
			if err != nil {
				t.Fatalf("join request: %v", err)
			}
			if _, err := sys.Submit(req); err != nil {
				t.Fatalf("submit supertask: %v", err)
			}
		} else if err := sys.AddSupertask(st, true); err != nil {
			t.Fatalf("add supertask: %v", err)
		}
		return sys.Run(horizon)
	}

	legacy, plane := run(false), run(true)
	if !reflect.DeepEqual(legacy, plane) {
		t.Errorf("supertask: results diverge: legacy %+v, Submit %+v", legacy, plane)
	}
}
