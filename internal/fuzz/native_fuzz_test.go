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

// FuzzParseReplay: ParseReplay answers any string with a key or an
// error, never a panic, and what it accepts names a real kind and
// prints back, through Case.Replay, to a key that parses to the same
// coordinates.
func FuzzParseReplay(f *testing.F) {
	for _, key := range []string{
		"fullutil/1/0", "rm/7/3159",
		// Recorded dynplane failures.
		"dynplane/-8782800724480256891/24", "dynplane/311100466133980597/21", "dynplane/-4688148371258574054/1",
		"", "edf", "edf/1", "edf/x/1", "edf/1/+2", "nokind/1/2", "rm/1/2/3",
	} {
		f.Add(key)
	}
	f.Fuzz(func(t *testing.T, key string) {
		k, seed, trial, err := ParseReplay(key)
		if err != nil {
			return
		}
		if k < 0 || k >= numKinds {
			t.Fatalf("%q parsed to kind %d, outside [0, %d)", key, k, numKinds)
		}
		c := Case{Kind: k, Seed: seed, Trial: trial}
		k2, seed2, trial2, err := ParseReplay(c.Replay())
		if err != nil || k2 != k || seed2 != seed || trial2 != trial {
			t.Fatalf("%q → %q → (%v, %d, %d, %v)", key, c.Replay(), k2, seed2, trial2, err)
		}
	})
}
