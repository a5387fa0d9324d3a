// Package rm implements the analysis of uniprocessor rate-monotonic (RM)
// fixed-priority scheduling: the Liu–Layland utilization bound and the
// exact response-time (time-demand) schedulability test of Lehoczky, Sha,
// and Ding [25]. The hyperbolic bound Π (uᵢ + 1) ≤ 2 of Bini et al. is
// admission.Hyperbolic, which RM admission uses. The preemptive RM simulator these tests
// are checked against is edf.NewRMSimulator: RM differs from EDF only in
// the priority a job is queued by.
//
// The paper discusses RM as the other popular partitioning companion
// (RM-FF, Section 3) and notes its drawbacks: the guaranteed multiprocessor
// utilization under RM-FF is only 41% (Oh & Baker [30]), and using the
// exact test instead of the 69% utilization bound turns partitioning into a
// variable-sized-bin-packing problem. The differential fuzz campaign
// checks the bounds against the exact test and the exact test against the
// simulator.
package rm

import (
	"math"
	"sort"

	"pfair/internal/task"
)

// LiuLaylandBound returns the classic utilization bound n·(2^{1/n} − 1) for
// n tasks; any set with Σu below it is RM-schedulable. The bound tends to
// ln 2 ≈ 0.693 as n grows.
//
//pfair:allowfloat n·(2^{1/n} − 1) is irrational; no exact rational representation exists
func LiuLaylandBound(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// SchedulableLL applies the Liu–Layland sufficient test.
//
//pfair:allowfloat the bound is irrational, so the comparison is inherently approximate; the exact RT analysis is ResponseTimes
func SchedulableLL(set task.Set) bool {
	return set.TotalUtilization() <= LiuLaylandBound(len(set))+1e-12
}

// byRM returns the set sorted rate-monotonically: shorter period = higher
// priority, ties by name for determinism.
func byRM(set task.Set) task.Set {
	c := set.Clone()
	sort.SliceStable(c, func(i, j int) bool {
		if c[i].Period != c[j].Period {
			return c[i].Period < c[j].Period
		}
		return c[i].Name < c[j].Name
	})
	return c
}

// ResponseTimes runs the exact response-time analysis: for each task (in RM
// priority order) it solves the recurrence
//
//	R = e + Σ_{j higher priority} ⌈R/pⱼ⌉·eⱼ
//
// by fixed-point iteration. It returns the worst-case response time of each
// task in the same order as the input set, and whether every response time
// is within its task's period. Tasks whose recurrence diverges past their
// period get response −1.
func ResponseTimes(set task.Set) (responses []int64, schedulable bool) {
	ordered := byRM(set)
	resp := make(map[string]int64, len(set))
	schedulable = true
	for i, t := range ordered {
		r := t.Cost
		for {
			demand := t.Cost
			for _, h := range ordered[:i] {
				demand += ((r + h.Period - 1) / h.Period) * h.Cost
			}
			if demand == r {
				break
			}
			r = demand
			if r > t.Period {
				r = -1
				schedulable = false
				break
			}
		}
		resp[t.Name] = r
	}
	responses = make([]int64, len(set))
	for i, t := range set {
		responses[i] = resp[t.Name]
	}
	return responses, schedulable
}
