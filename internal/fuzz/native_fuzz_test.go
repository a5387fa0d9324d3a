package fuzz

import (
	"testing"

	"pfair/internal/core"
)

// FuzzDifferential is the native-fuzzing entry point to the differential
// oracle: the engine mutates the (seed, kind, trial) coordinates and
// every generated task system must satisfy its kind's cross-checks.
// Run with: go test ./internal/fuzz -fuzz FuzzDifferential
func FuzzDifferential(f *testing.F) {
	// One seed per kind, at the index of the kind's GenCase salt offset, so
	// seed#N keeps naming the case it named before a kind was retired
	// (dynplane stays seed#8). Index 7, the retired kind's, holds a
	// negative kind coordinate instead, which the body folds to fullutil.
	for k := Kind(0); k < numKinds; k++ {
		if k == KindDynPlane {
			f.Add(int64(1), -int64(numKinds), int64(1))
		}
		f.Add(int64(1), int64(k), int64(0))
	}
	f.Fuzz(func(t *testing.T, seed, kind, trial int64) {
		k := Kind(((kind % int64(numKinds)) + int64(numKinds)) % int64(numKinds))
		c := GenCase(k, seed, trial)
		out := CheckCase(c, core.PD2)
		if len(out.Violations) > 0 {
			t.Errorf("%s\n  %v", c.Describe(), out.Violations)
		}
	})
}
