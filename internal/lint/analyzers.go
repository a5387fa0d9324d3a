package lint

// All returns every pfair analyzer in the order pfairlint runs them:
// the five per-package invariant analyzers, then the interprocedural
// call-graph analyzers (hotclosure, floatflow, reach) and the annotation
// audit (staleannot).
func All() []*Analyzer {
	return []*Analyzer{RatFloat, Determinism, HotPath, NoPanic, ErrCheckRat, HotClosure, FloatFlow, Reach, StaleAnnot}
}
