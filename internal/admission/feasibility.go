package admission

import (
	"fmt"

	"pfair/internal/rational"
	"pfair/internal/task"
)

// This file holds the exact-rational feasibility tests the admission
// plane applies before a join or an upward reweight commits. Each test
// answers one question — does the prospective set still satisfy the
// policy's schedulability condition? — with exact arithmetic, per the
// repository's no-floats rule:
//
//   - Utilization is Equation (2), Σ wt(T) ≤ M: necessary and
//     sufficient for Pfair/ERfair (the paper's core claim), necessary
//     and sufficient (with M = 1) for preemptive uniprocessor EDF, and
//     the capacity gate wrr enforces.
//   - Hyperbolic is the Bini–Buttazzo–Buttazzo bound Π(uᵢ+1) ≤ 2,
//     sufficient for uniprocessor RM — tighter than the Liu–Layland
//     n(2^{1/n}−1) bound the rm package also exposes.
//
// The error a failed test returns is the admission error the caller
// surfaces; it names the violated bound with its exact operands.

// Utilization applies Equation (2) to a prospective change: with total
// the current exact utilization sum, add the weight joining and sub the
// weight departing (either may be zero), it reports whether
// total − sub + add ≤ capacity still holds. The inputs are not
// modified.
func Utilization(total *rational.Acc, add, sub rational.Rat, capacity int64) error {
	w := total.Clone().Sub(sub).Add(add)
	if w.CmpInt(capacity) > 0 {
		return fmt.Errorf("admission: utilization %v would exceed the capacity %d (Σwt ≤ %d)", w, capacity, capacity)
	}
	return nil
}

// Hyperbolic applies the hyperbolic RM bound to the prospective set:
// Π (uᵢ + 1) ≤ 2 over set plus (optionally) add, computed exactly. A
// nil add tests the set as-is. The critical-instant argument makes the
// bound valid for mid-run joins: a task admitted under it meets its
// deadlines from any release phasing, so joining at the current instant
// is no worse than the synchronous case the bound models.
func Hyperbolic(set task.Set, add *task.Task) error {
	prod := rational.NewAcc().SetInt(1)
	mul := func(t *task.Task) {
		prod.MulRat(t.Weight().Add(rational.One()))
	}
	for _, t := range set {
		mul(t)
	}
	if add != nil {
		mul(add)
	}
	if prod.CmpInt(2) > 0 {
		name := "the set"
		if add != nil {
			name = fmt.Sprintf("admitting %v", add)
		}
		return fmt.Errorf("admission: %s fails the hyperbolic RM bound: Π(uᵢ+1) = %v > 2", name, prod)
	}
	return nil
}
