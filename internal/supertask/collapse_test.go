package supertask

import (
	"testing"

	"pfair/internal/core"
	"pfair/internal/rational"
	"pfair/internal/task"
	"pfair/internal/taskgen"
)

func TestCollapsePartitionsUnderWeightBudget(t *testing.T) {
	set, err := taskgen.New(99).Set("c", 200, 6.0, []int64{10, 20, 40, 50})
	if err != nil {
		t.Fatalf("taskgen: %v", err)
	}
	for _, reweighted := range []bool{false, true} {
		groups, err := Collapse("S", set, reweighted)
		if err != nil {
			t.Fatalf("reweighted=%v: %v", reweighted, err)
		}
		if len(groups) < 6 {
			t.Fatalf("reweighted=%v: %d groups for ~6 processors of load", reweighted, len(groups))
		}
		// Every component appears exactly once, in set order.
		var flat task.Set
		for i, g := range groups {
			if want := "S" + itoa(i); g.Name != want {
				t.Fatalf("group %d named %q, want %q", i, g.Name, want)
			}
			if len(g.Components) == 0 {
				t.Fatalf("group %d empty", i)
			}
			flat = append(flat, g.Components...)
			// The admission weight must fit one processor.
			w, werr := g.Weight()
			if reweighted {
				w, werr = g.ReweightedWeight()
			}
			if werr != nil {
				t.Fatalf("group %d weight: %v", i, werr)
			}
			if rational.One().Less(w) {
				t.Fatalf("group %d admission weight %v exceeds 1", i, w)
			}
		}
		if len(flat) != len(set) {
			t.Fatalf("reweighted=%v: %d components across groups, want %d", reweighted, len(flat), len(set))
		}
		for i := range flat {
			if flat[i] != set[i] {
				t.Fatalf("component %d reordered: %v vs %v", i, flat[i], set[i])
			}
		}
	}
}

func TestCollapseDeterministic(t *testing.T) {
	set, err := taskgen.New(7).Set("c", 64, 3.0, []int64{8, 16, 24})
	if err != nil {
		t.Fatalf("taskgen: %v", err)
	}
	a, err := Collapse("S", set, true)
	if err != nil {
		t.Fatalf("collapse: %v", err)
	}
	b, err := Collapse("S", set, true)
	if err != nil {
		t.Fatalf("collapse: %v", err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic group count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Components) != len(b[i].Components) {
			t.Fatalf("group %d sized %d vs %d", i, len(a[i].Components), len(b[i].Components))
		}
	}
}

func TestCollapseInfeasibleSingleton(t *testing.T) {
	// A full-weight task cannot absorb the 1/p_min inflation.
	set := task.Set{task.MustNew("w", 5, 5)}
	if _, err := Collapse("S", set, true); err == nil {
		t.Fatal("expected error collapsing a weight-1 task under reweighting")
	}
	// Without inflation it fits alone.
	groups, err := Collapse("S", set, false)
	if err != nil || len(groups) != 1 {
		t.Fatalf("uninflated collapse = %v groups, err %v", len(groups), err)
	}
}

func TestCollapsedSystemSchedules(t *testing.T) {
	set, err := taskgen.New(3).Set("c", 20, 1.6, []int64{10, 20, 40})
	if err != nil {
		t.Fatalf("taskgen: %v", err)
	}
	groups, err := Collapse("S", set, true)
	if err != nil {
		t.Fatalf("collapse: %v", err)
	}
	sys := NewSystem(3, core.PD2)
	for _, g := range groups {
		if err := sys.AddSupertask(g, true); err != nil {
			t.Fatalf("add %s: %v", g.Name, err)
		}
	}
	res := sys.Run(400)
	if len(res.ComponentMisses) != 0 {
		t.Fatalf("reweighted collapsed system missed %d component deadlines: %+v", len(res.ComponentMisses), res.ComponentMisses[0])
	}
	if len(res.Scheduler.Misses) != 0 {
		t.Fatalf("global misses: %+v", res.Scheduler.Misses)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
