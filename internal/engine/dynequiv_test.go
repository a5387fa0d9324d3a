package engine_test

// Dynamic-task equivalence suite: the unified entry point (Submit)
// and each policy's legacy entry points are two doors into the same
// transaction, so driving the identical churn script through either must
// produce identical observable output — accept sequences, assignment
// streams, counters and miss lists. `make dyn-equiv` runs exactly this
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
// mid-run operations, must agree on the accept sequence, the schedule
// and the stats (the legacy names are shims over Submit; this pins it),
// and each script must end with the task set and total weight its
// operations imply. The last two scripts leave a task whose reweight is
// still pending: the leave cancels the reweight, upward or downward, and
// the task departs at the reweight's safe slot.
func TestDynEquivCore(t *testing.T) {
	set := task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 2, 3), task.MustNew("C", 1, 4)}
	const horizon = 120
	type step struct {
		at  int64 // the slot the request is submitted at
		req admission.Request
	}
	scripts := []struct {
		name       string
		steps      []step
		wantTasks  []string
		wantWeight string
	}{
		{"join, reweight, leave", []step{
			{30, admission.Join(task.MustNew("D", 1, 5))},
			{30, admission.Reweight("C", 1, 2)},
			{60, admission.Leave("B")},
		}, []string{"A", "D", "C"}, "6/5"},
		{"leave after pending upward reweight", []step{
			{5, admission.Reweight("C", 1, 2)},
			{5, admission.Leave("C")},
		}, []string{"A", "B"}, "7/6"},
		{"leave after pending downward reweight", []step{
			{5, admission.Reweight("B", 1, 3)},
			{5, admission.Leave("B")},
		}, []string{"A", "C"}, "3/4"},
	}

	type result struct {
		accepts []bool
		slots   []verify.Slot
		stats   core.Stats
		tasks   []string
		weight  string
	}
	run := func(steps []step, plane bool) result {
		s := core.NewScheduler(2, core.PD2, core.Options{})
		rec := &verify.Recorder{}
		s.OnSlot(rec.Record)
		var r result
		submit := func(req admission.Request) {
			var err error
			switch {
			case plane:
				_, err = s.Submit(req)
			case req.Op == admission.OpJoin:
				err = s.Join(req.Task)
			case req.Op == admission.OpReweight:
				_, err = s.Reweight(req.Name, req.NewCost, req.NewPeriod)
			default:
				_, err = s.Leave(req.Name)
			}
			r.accepts = append(r.accepts, err == nil)
		}
		for _, tk := range set {
			submit(admission.Join(tk))
		}
		for _, st := range steps {
			s.RunUntil(st.at)
			submit(st.req)
		}
		s.RunUntil(horizon)
		s.FinishMisses(horizon)
		r.slots, r.stats, r.tasks, r.weight = rec.Slots, s.Stats(), s.Tasks(), s.TotalWeight().String()
		return r
	}

	for _, sc := range scripts {
		legacy, plane := run(sc.steps, false), run(sc.steps, true)
		if !reflect.DeepEqual(legacy.accepts, plane.accepts) {
			t.Errorf("%s: accept sequences diverge: legacy %v, Submit %v", sc.name, legacy.accepts, plane.accepts)
		}
		for i, ok := range plane.accepts {
			if !ok {
				t.Errorf("%s: request %d refused", sc.name, i)
			}
		}
		if !reflect.DeepEqual(legacy.slots, plane.slots) {
			t.Errorf("%s: legacy and Submit schedules diverge", sc.name)
		}
		if !reflect.DeepEqual(legacy.stats, plane.stats) {
			t.Errorf("%s: stats diverge: legacy %+v, Submit %+v", sc.name, legacy.stats, plane.stats)
		}
		if plane.stats.Misses != nil {
			t.Errorf("%s: %d misses under a feasible script", sc.name, len(plane.stats.Misses))
		}
		for _, r := range []result{legacy, plane} {
			if !reflect.DeepEqual(r.tasks, sc.wantTasks) || r.weight != sc.wantWeight {
				t.Errorf("%s: ends with %v at Σwt %s, want %v at %s", sc.name, r.tasks, r.weight, sc.wantTasks, sc.wantWeight)
			}
		}
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
