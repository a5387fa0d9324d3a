package engine_test

// Dynamic-task equivalence suite for the policies that keep a second
// way in beside Submit: EDF's and RM's Add, which admits without a
// feasibility check and which Submit calls once its check passes, and
// WRR's constructor task set, which bypasses Submit. For a feasible set
// either way in must produce identical observable output — assignment
// streams, counters and miss lists. `make dyn-equiv` runs exactly this
// suite.

import (
	"reflect"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/edf"
	"pfair/internal/task"
	"pfair/internal/wrr"
)

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
