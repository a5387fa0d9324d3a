package faults

import (
	"testing"

	"pfair/internal/task"
)

func crit(name string, e, p int64) *task.Task {
	t := task.MustNew(name, e, p)
	t.Critical = true
	return t
}

// TestTransparentFailure: Σwt ≤ M−K means the loss of K processors is
// absorbed with no misses at all and no reweighting needed (Section 5.4's
// "the optimality and global nature of Pfair scheduling ensures that the
// system can tolerate the loss of K processors transparently").
func TestTransparentFailure(t *testing.T) {
	sc := Scenario{
		M: 4, Fail: 2, FailAt: 60, Horizon: 600, SettleSlack: 0,
		Tasks: task.Set{
			crit("c1", 2, 3), task.MustNew("n1", 2, 3), task.MustNew("n2", 1, 3), task.MustNew("n3", 1, 3),
		}, // Σwt = 2 = M − K
	}
	out, err := Run(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Survivors != 2 {
		t.Fatalf("survivors = %d", out.Survivors)
	}
	if len(out.Reweighted) != 0 {
		t.Errorf("reweighting happened despite spare capacity: %v", out.Reweighted)
	}
	if out.MissesBefore != 0 || out.CriticalMissesAfterSettle != 0 || out.NonCriticalMisses != 0 {
		t.Errorf("misses: %+v", out)
	}
}

// TestOverloadWithShedding: when the survivors cannot carry the load,
// shedding keeps critical tasks clean after the settle window.
func TestOverloadWithShedding(t *testing.T) {
	sc := Scenario{
		M: 3, Fail: 1, FailAt: 90, Horizon: 2000, SettleSlack: 60,
		Tasks: task.Set{
			crit("c1", 1, 3), crit("c2", 1, 4),
			task.MustNew("n1", 2, 3), task.MustNew("n2", 1, 2), task.MustNew("n3", 1, 3),
		}, // Σwt = 1/3+1/4+2/3+1/2+1/3 ≈ 2.08 → overload on 2 survivors
	}
	out, err := Run(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.MissesBefore != 0 {
		t.Errorf("misses before the failure: %d", out.MissesBefore)
	}
	if len(out.Reweighted) == 0 {
		t.Fatal("no task was shed despite overload")
	}
	if out.CriticalMissesAfterSettle != 0 {
		t.Errorf("critical tasks missed after settling: %d", out.CriticalMissesAfterSettle)
	}
}

// TestOverloadWithoutShedding: the same scenario without shedding piles up
// misses (including critical ones) — graceful degradation requires the
// reweighting mechanism, which Pfair supports natively.
func TestOverloadWithoutShedding(t *testing.T) {
	sc := Scenario{
		M: 3, Fail: 1, FailAt: 90, Horizon: 2000, SettleSlack: 60,
		Tasks: task.Set{
			crit("c1", 1, 3), crit("c2", 1, 4),
			task.MustNew("n1", 2, 3), task.MustNew("n2", 1, 2), task.MustNew("n3", 1, 3),
		},
	}
	out, err := Run(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.CriticalMissesAfterSettle+out.NonCriticalMisses == 0 {
		t.Error("overload without shedding produced no misses at all")
	}
}

// TestSheddingPlanFits: the shed plan's post-reweight total weight fits
// the survivors.
func TestSheddingPlanFits(t *testing.T) {
	tasks := task.Set{
		crit("c", 1, 2),
		task.MustNew("a", 3, 4), task.MustNew("b", 2, 3), task.MustNew("d", 1, 2),
	}
	plan := shedPlan(tasks, 2)
	if len(plan) == 0 {
		t.Fatal("no shedding despite Σwt ≈ 2.92 > 2")
	}
	total := 0.0
	for _, tk := range tasks {
		e, p := tk.Cost, tk.Period
		if ep, ok := plan[tk.Name]; ok {
			if tk.Critical {
				t.Fatalf("critical task %s shed", tk.Name)
			}
			e, p = ep[0], ep[1]
		}
		total += float64(e) / float64(p)
	}
	if total > 2.0 {
		t.Errorf("post-shed utilization %v > 2", total)
	}
}

func TestRunRejectsFullFailure(t *testing.T) {
	if _, err := Run(Scenario{M: 2, Fail: 2, Tasks: task.Set{task.MustNew("a", 1, 2)}, Horizon: 10}, false); err == nil {
		t.Error("failing every processor accepted")
	}
}

func TestOutcomeNames(t *testing.T) {
	o := Outcome{Reweighted: map[string][2]int64{"b": {1, 2}, "a": {1, 3}}}
	names := o.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}
