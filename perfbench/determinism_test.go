package main

import (
	"fmt"
	"io"
	"testing"

	"pfair/internal/experiments"
	"pfair/internal/fuzz"
	"pfair/internal/task"
)

// inputDigests hashes every input the workloads generate from seed.
func inputDigests(t *testing.T, seed int64) map[string]string {
	t.Helper()
	kinds, err := fuzzKinds()
	if err != nil {
		t.Fatal(err)
	}
	cases := genFuzzCases(kinds, fuzzSeed(seed, 0), fuzzTrials)
	return map[string]string{
		"sweep sets": digest(func(w io.Writer) {
			for _, s := range genSweepSets(seed) {
				writeSet(w, s.set)
				for _, tk := range s.set {
					fmt.Fprintf(w, "%d\n", s.params.CacheDelay(tk))
				}
			}
		}),
		"sweep config": fmt.Sprint(sweepConfig(seed).Seed),
		"sim sets":     digest(func(w io.Writer) { writeSimSets(w, genSimSets(seed, false)) }),
		"fuzz cases": digest(func(w io.Writer) {
			for i := range cases {
				fmt.Fprintf(w, "%s %v\n", cases[i].Describe(), cases[i].Delays)
			}
		}),
	}
}

// outputDigests runs a small slice of each workload and hashes what it
// produced: a one-N sweep, one sim round and one fuzz round.
func outputDigests(t *testing.T, seed int64) map[string]string {
	t.Helper()
	cfg := sweepConfig(seed)
	cfg.Ns = []int{50}
	sim, err := setupSim(seed, false, pathPD2)
	if err != nil {
		t.Fatal(err)
	}
	sim.round(0, nil, func() {})
	kinds, err := fuzzKinds()
	if err != nil {
		t.Fatal(err)
	}
	rep := fuzz.Run(fuzz.Config{Seed: fuzzSeed(seed, 0), Trials: 3, Kinds: kinds, Workers: 1, NoShrink: true})
	return map[string]string{
		"sweep": sweepOutputDigest(cfg.Ns, experiments.Fig3(cfg)),
		"sim": digest(func(w io.Writer) {
			for _, s := range sim.(*simRunner).pd2 {
				fmt.Fprintf(w, "%+v\n", s.Stats())
			}
		}),
		"fuzz": fmt.Sprintf("%d %d %d", rep.Cases, rep.Explained, len(rep.Failures)),
	}
}

func TestSameSeedSameInputsAndOutputs(t *testing.T) {
	for _, f := range []func(*testing.T, int64) map[string]string{inputDigests, outputDigests} {
		a, b := f(t, 7), f(t, 7)
		for k := range a {
			if a[k] != b[k] {
				t.Errorf("%s: seed 7 gave %s, then %s", k, a[k], b[k])
			}
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := inputDigests(t, 1), inputDigests(t, 2)
	for k := range a {
		if a[k] == b[k] {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", k)
		}
	}
}

// TestSimSetsFit pins the sim grid's shape: every set fits its platform
// and keeps at least half of its ~0.95·M target weight.
func TestSimSetsFit(t *testing.T) {
	for _, ss := range genSimSets(3, false) {
		w := ss.set.TotalWeight()
		if w.CmpInt(int64(ss.m)) > 0 {
			t.Errorf("M=%d gen=%d: weight %s exceeds M", ss.m, ss.gen, w)
		}
		if 2*w.Float() < 0.95*float64(ss.m) {
			t.Errorf("M=%d gen=%d: weight %s is under half the target", ss.m, ss.gen, w)
		}
	}
}

func writeSet(w io.Writer, set task.Set) {
	for _, t := range set {
		fmt.Fprintf(w, "%s %d %d\n", t.Name, t.Cost, t.Period)
	}
}

func writeSimSets(w io.Writer, sets []simSet) {
	for _, ss := range sets {
		fmt.Fprintf(w, "M=%d gen=%d\n", ss.m, ss.gen)
		writeSet(w, ss.set)
	}
}

// TestSweepDigestPinned checks the pinned seed-1 digest against a single
// Fig3 call over every N: the workload's rounds, which call Fig3 once per
// N, must render exactly what one call does.
func TestSweepDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole seed-1 sweep")
	}
	if d := sweepOutputDigest(sweepNs, experiments.Fig3(sweepConfig(1))); d != pinnedSweepDigest {
		t.Errorf("seed 1: one Fig3 call renders digest %s, pinned %s", d, pinnedSweepDigest)
	}
}
