package experiments

import (
	"pfair/internal/core"
	"pfair/internal/parallel"
	"pfair/internal/rational"
	"pfair/internal/task"
	"pfair/internal/taskgen"
	"pfair/internal/wrr"
)

// Pfairness is defined by Equation (1): −1 < lag(T, t) < 1 for all T and
// t. This experiment measures the worst lag excursions actually produced
// by PD², its work-conserving ERfair variant, and the weighted
// round-robin baseline on the same workloads, making the definition
// quantitative: PD² stays strictly inside (−1, 1); ERfair keeps the upper
// bound (deadlines) but runs ahead of the fluid rate when idle capacity
// exists (negative lag below −1); WRR drifts beyond the bound in both
// directions.

// FairnessPoint reports one scheduler's worst lag excursions.
type FairnessPoint struct {
	Scheduler string
	// MaxLag is the largest lag observed (positive = behind the fluid
	// rate; ≥ 1 means a Pfairness violation).
	MaxLag float64
	// MinLag is the smallest lag observed (negative = ahead).
	MinLag float64
	// Misses counts job/subtask deadline misses.
	Misses int
}

// FairnessConfig scales the experiment.
type FairnessConfig struct {
	M       int
	N       int
	Total   float64
	Horizon int64
	Seed    int64
	// Workers runs the three scheduler variants concurrently when > 1;
	// each variant simulates its own scheduler over the same (read-only)
	// task set, so the output is identical for any worker count.
	Workers int
}

// DefaultFairnessConfig returns a near-saturated 2-processor workload
// where round-robin bursts are visible.
func DefaultFairnessConfig() FairnessConfig {
	return FairnessConfig{M: 2, N: 8, Total: 1.9, Horizon: 5000, Seed: 11}
}

// Fairness runs the comparison on one generated set. The three scheduler
// variants are independent simulations over the same read-only set, so
// they fan out across the worker pool; results are folded in the fixed
// PD2, ERfair, WRR order.
func Fairness(cfg FairnessConfig) []FairnessPoint {
	g := taskgen.New(cfg.Seed)
	set := mustSet(g.Set("T", cfg.N, cfg.Total, []int64{10, 15, 20, 30, 60}))

	results := make([]*FairnessPoint, 3)
	parallel.For(cfg.Workers, len(results), func(v int) {
		switch v {
		case 0:
			results[v] = fairnessPD2(set, cfg, "PD2", false)
		case 1:
			results[v] = fairnessPD2(set, cfg, "ERfair-PD2", true)
		case 2:
			// WRR on the same set, lags tracked through its per-slot hook.
			w, err := wrr.NewScheduler(cfg.M, set)
			if err != nil {
				return
			}
			lt := newLagTracker(set)
			// WRR reports allocations by name.
			index := make(map[string]int, len(set))
			for i, t := range set {
				index[t.Name] = i
			}
			w.OnSlot(func(t int64, allocated []string) {
				for _, name := range allocated {
					lt.alloc[index[name]]++
				}
				lt.scan(t)
			})
			w.RunUntil(cfg.Horizon)
			results[v] = &FairnessPoint{
				Scheduler: "WRR",
				MaxLag:    lt.max.Float(),
				MinLag:    lt.min.Float(),
				Misses:    len(w.Stats().Misses),
			}
		}
	})

	var out []FairnessPoint
	for _, p := range results {
		if p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// fairnessPD2 simulates one PD² variant and reports its lag excursions,
// or nil if the set does not fit the platform.
func fairnessPD2(set task.Set, cfg FairnessConfig, name string, earlyRelease bool) *FairnessPoint {
	s := core.NewScheduler(cfg.M, core.PD2, core.Options{EarlyRelease: earlyRelease})
	lt := newLagTracker(set)
	s.OnSlot(lt.onSlot)
	for _, t := range set {
		if err := s.Join(t); err != nil {
			return nil
		}
	}
	s.RunUntil(cfg.Horizon)
	s.FinishMisses(cfg.Horizon)
	return &FairnessPoint{
		Scheduler: name,
		MaxLag:    lt.max.Float(),
		MinLag:    lt.min.Float(),
		Misses:    len(s.Stats().Misses),
	}
}

// lagTracker maintains exact lags from slot assignments, per task in set
// order (the core task id, as the set joins in order).
type lagTracker struct {
	pats     []*core.Pattern
	alloc    []int64
	max, min rational.Rat
}

func newLagTracker(set task.Set) *lagTracker {
	lt := &lagTracker{pats: make([]*core.Pattern, len(set)), alloc: make([]int64, len(set))}
	for i, t := range set {
		lt.pats[i] = core.NewPattern(t.Cost, t.Period)
	}
	return lt
}

//pfair:hotpath
func (lt *lagTracker) onSlot(t int64, assigned []core.Assignment) {
	for _, a := range assigned {
		lt.alloc[a.Task]++
	}
	lt.scan(t)
}

//pfair:hotpath
func (lt *lagTracker) scan(t int64) {
	for i, pat := range lt.pats {
		lag := pat.Lag(t+1, lt.alloc[i])
		if lt.max.Less(lag) {
			lt.max = lag
		}
		if lag.Less(lt.min) {
			lt.min = lag
		}
	}
}
