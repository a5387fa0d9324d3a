package fuzz

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/task"
)

// TestGenCaseDeterministic: a case is fully reconstructible from its
// (kind, seed, trial) replay key, independent of generation order — the
// property every failure report relies on.
func TestGenCaseDeterministic(t *testing.T) {
	for _, kind := range AllKinds() {
		a := GenCase(kind, 7, 13)
		b := GenCase(kind, 7, 13)
		if a.Describe() != b.Describe() {
			t.Errorf("%v: GenCase not deterministic:\n  %s\n  %s", kind, a.Describe(), b.Describe())
		}
		if len(a.Set) == 0 {
			t.Errorf("%v: empty task set generated", kind)
		}
		c := GenCase(kind, 7, 14)
		if a.Describe() == c.Describe() {
			t.Errorf("%v: adjacent trials generated identical cases", kind)
		}
	}
}

// TestCorpusClean is the deterministic CI corpus: a short campaign over
// every kind must produce zero unexplained disagreements. The campaign
// runs through the internal/parallel pool, so under go test -race this
// doubles as the harness's data-race regression test.
func TestCorpusClean(t *testing.T) {
	trials := int64(20)
	if testing.Short() {
		trials = 5
	}
	rep := Run(Config{Seed: 1, Trials: trials})
	if len(rep.Failures) > 0 {
		for _, f := range rep.Failures {
			t.Errorf("%s\n  %v", f.Case.Describe(), f.Violations)
		}
	}
	if rep.Cases != int(trials)*int(numKinds) {
		t.Errorf("ran %d cases, want %d", rep.Cases, int(trials)*int(numKinds))
	}
}

// TestMutationCaught: injecting the PD2NoBBit mutant (PD² minus the b-bit
// tie-break) must be detected, and at least one failure must shrink to a
// reproducer of at most 4 tasks — small enough to debug by hand.
func TestMutationCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation campaign is not short")
	}
	rep := Run(Config{Seed: 2, Trials: 150, Kinds: []Kind{KindFullUtil}, Mutant: core.PD2NoBBit})
	if len(rep.Failures) == 0 {
		t.Fatal("dropping the b-bit tie-break from PD² survived 150 full-utilization cases")
	}
	min := len(rep.Failures[0].Case.Set)
	for _, f := range rep.Failures {
		if f.Shrunk == nil {
			t.Fatalf("failure %s has no shrunken reproducer", f.Case.Replay())
		}
		if !fails(*f.Shrunk, core.PD2NoBBit) {
			t.Errorf("shrunken reproducer for %s does not fail", f.Case.Replay())
		}
		if n := len(f.Shrunk.Set); n < min {
			min = n
		}
	}
	if min > 4 {
		t.Errorf("smallest shrunken reproducer has %d tasks, want ≤ 4", min)
	}
	t.Logf("caught with %d failures, smallest reproducer %d tasks", len(rep.Failures), min)
}

// TestEPDFMutantCaught: substituting EPDF for PD² is the second injected
// mutation the oracle must flag.
func TestEPDFMutantCaught(t *testing.T) {
	rep := Run(Config{Seed: 1, Trials: 40, Kinds: []Kind{KindFullUtil}, Mutant: core.EPDF, NoShrink: true})
	if len(rep.Failures) == 0 {
		t.Fatal("EPDF survived 40 full-utilization cases as a PD² substitute")
	}
}

// TestEPDFCounterexamplesExplained: the EPDF kind must find fresh
// counterexamples to EPDF optimality on M ≥ 3 (reporting them as
// explained, not as violations).
func TestEPDFCounterexamplesExplained(t *testing.T) {
	if testing.Short() {
		t.Skip("counterexample hunt is not short")
	}
	rep := Run(Config{Seed: 1, Trials: 150, Kinds: []Kind{KindEPDF}, NoShrink: true})
	if len(rep.Failures) > 0 {
		t.Fatalf("EPDF kind produced unexplained violations: %v", rep.Failures[0].Violations)
	}
	if rep.Explained == 0 {
		t.Error("no EPDF counterexample found in 150 full-utilization sets")
	}
	t.Logf("%d explained EPDF counterexamples", rep.Explained)
}

// TestShrinkPinnedEPDFCounterexample: the 8-task counterexample pinned in
// the core test suite (EPDF misses on 5 processors) must shrink to a
// strictly smaller reproducer that still fails EPDF.
func TestShrinkPinnedEPDFCounterexample(t *testing.T) {
	set := task.Set{
		task.MustNew("T0", 4, 9), task.MustNew("T1", 3, 6), task.MustNew("T2", 1, 2),
		task.MustNew("T3", 8, 9), task.MustNew("T4", 6, 10), task.MustNew("T5", 3, 6),
		task.MustNew("T6", 9, 10), task.MustNew("T7", 2, 3),
	}
	c := Case{Kind: KindFullUtil, Set: set, M: 5, Horizon: 2 * set.Hyperperiod()}
	if !fails(c, core.EPDF) {
		t.Fatal("the pinned EPDF counterexample no longer fails EPDF")
	}
	sc := Shrink(c, core.EPDF)
	if !fails(sc, core.EPDF) {
		t.Fatal("shrunken case does not fail")
	}
	if len(sc.Set) >= len(set) && sc.M >= c.M {
		t.Errorf("shrinker made no progress on the 8-task counterexample: %d tasks M=%d", len(sc.Set), sc.M)
	}
	t.Logf("shrunk 8 tasks / M=5 to %d tasks / M=%d: %v", len(sc.Set), sc.M, sc.Set)
}

// TestParseReplayRoundTrip: every case's replay key parses back to the
// coordinates that regenerate it.
func TestParseReplayRoundTrip(t *testing.T) {
	for _, kind := range AllKinds() {
		c := GenCase(kind, 42, 17)
		k, seed, trial, err := ParseReplay(c.Replay())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if k != kind || seed != 42 || trial != 17 {
			t.Errorf("%v: round trip gave %v/%d/%d", kind, k, seed, trial)
		}
		replayed := GenCase(k, seed, trial)
		if replayed.Describe() != c.Describe() {
			t.Errorf("%v: replayed case differs", kind)
		}
	}
	for _, bad := range []string{"", "fullutil", "fullutil/1", "bogus/1/2", "fullutil/x/2", "fullutil/1/x"} {
		if _, _, _, err := ParseReplay(bad); err == nil {
			t.Errorf("ParseReplay(%q) succeeded", bad)
		}
	}
}

// TestReweightNoMisses pins the reweight path deterministically (the
// random dynplane kind scripts it too): a mid-run rate change
// (leave-and-rejoin under the hood) must not cost any task a deadline.
func TestReweightNoMisses(t *testing.T) {
	s := core.NewScheduler(2, core.PD2, core.Options{})
	set := task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 2, 3), task.MustNew("C", 1, 4)}
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join %v: %v", tk, err)
		}
	}
	s.RunUntil(50)
	dec, err := s.Submit(admission.Reweight("C", 3, 4))
	at := dec.EffectiveAt
	if err != nil {
		t.Fatalf("reweight: %v", err)
	}
	s.RunUntil(at + 240)
	s.FinishMisses(at + 240)
	if n := len(s.Stats().Misses); n != 0 {
		t.Fatalf("reweight caused %d misses, first %+v", n, s.Stats().Misses[0])
	}
}

// TestCoreEffects: the dynplane core leg's final-state check passes a
// run whose leave cancels a pending reweight, and flags the same run
// once its accepted Decisions are doctored to say otherwise — a leave
// dropped, a reweight's new weight changed.
func TestCoreEffects(t *testing.T) {
	c := Case{
		Kind: KindDynPlane, M: 2, Horizon: 40,
		Set:       task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 2, 3), task.MustNew("C", 1, 4), task.MustNew("D", 1, 6)},
		Joins:     map[string]int64{"D": 3},
		Reweights: map[string][3]int64{"B": {5, 1, 3}, "C": {5, 1, 2}},
		Leaves:    map[string]int64{"C": 5},
	}
	var v violations
	checkCoreDynPlane(c, core.PD2, &v)
	if len(v.list) != 0 {
		t.Fatalf("correct run flagged: %v", v.list)
	}
	sched, accepted := runCoreDynPlane(c, core.PD2)
	if got, want := sched.Tasks(), []string{"A", "D", "B"}; !slices.Equal(got, want) {
		t.Fatalf("tasks %v, want %v: the workload lost its churn", got, want)
	}
	for name, doctor := range map[string]func([]acceptedReq) []acceptedReq{
		"leave dropped": func(acc []acceptedReq) []acceptedReq { return acc[:len(acc)-1] },
		"weight changed": func(acc []acceptedReq) []acceptedReq {
			for i := range acc {
				if acc[i].req.Op == admission.OpReweight && acc[i].d.Name == "B" {
					acc[i].req.NewPeriod++
				}
			}
			return acc
		},
	} {
		var v violations
		checkCoreEffects(sched, doctor(slices.Clone(accepted)), &v)
		if len(v.list) == 0 {
			t.Errorf("%s: not flagged", name)
		}
	}
}

// TestReplayKeysPinned: a replay key printed by any earlier campaign must
// keep reproducing its case. For every kind, the sha256 of the seed-1
// cases' Describe output for trials 0–2 is pinned; retiring or adding a
// kind must not move another kind's stream.
func TestReplayKeysPinned(t *testing.T) {
	pinned := map[string][3]string{
		"fullutil":  {"4e85a9a6fa42e370d905b016034dc28cd9ed2d75e86961b84f50ceaacf259054", "f4fdc3f4b9481649ed50aedb73f9974715d654574d1f8b203bae127cbfecadd7", "78990844f1a49ec612051792f958ba178fb69ab2abe067f612d87b988672f252"},
		"epdf":      {"f4c6a97f0b425efdd694a30f09c24b5c69e9a6d7c0db622f297e9709836e4217", "b2946c8fc8044c46ea79eb78430ec3edd0b91778803ca1ae169dc9fb977d0cda", "03220804f3dbc938408559aa88267a602cf0c94cf9690e4cb683499f7f83ab5d"},
		"edf":       {"241782e52e1117780af1a64e13b00ab85ad28e6b40c26e08766817da68593883", "e9c42312a3e707ffc1677acd0f1fb19a55d0211c58b63bbe2db635a28ce9e6f0", "c128e6a82cbef13a4a7f7a5a78140ce3db84e7c9b607044f478e5acf515b8a68"},
		"rm":        {"ec30665235cbbbe5fffbd26d2ca07a50089f53b779c61f5f8ad2de6671b49bab", "7094aa14e2c48c479e7ab37152af8b98c3c47b9ad7ae3aa8813b946b566e7bae", "73ab3eba8ffac4f5c51415bbde6ae1240a643f9c0e8fc28a47d2bd34c2b7facf"},
		"partition": {"bfcda32a75128e164be7d89a5844711cb4e69121009753e30bfe869d268f2a2c", "fff71aa940f366f108eae7af5ee399919260ece2e2eeee272b9a8eb229edb74d", "b27b87d8e7107b0f084d4c50aff6c9516f35baaf999d61bfa2418099de6c05c0"},
		"dynamic":   {"980ae7a369ac46a4052f79d5388f9a458dd4187c16501863076b0bd5b587a672", "357b3f98333aa0195c743bac17b26124f3db632678fa77338f03597e52785185", "f540bdb496a4a6f48667fc53e4ecdb172e671001a34730d0dd34312d5bca2e50"},
		"is":        {"b28ff620040126da2520102a682cd12f338ff20b8553778a813577afd5d22e01", "6c658e09f08b87a28c39f7b628ef8c8cd2396eb22c1213323b4a04014879608c", "42e567be4b38d17f7f94181cfd75637b70e8711a1f1d80e40bf26ae983a385fc"},
		"dynplane":  {"360c746eb0e949c602df2cd8471822d0849240059bc572ac1214102f4c3cee62", "db208983ed66462c398df8b3dc1f4382fab24ae119397021a3111b441c90228f", "7078290d1733f7239e4f53f1774e0dda97334eee57a4eb1fb8bb8025abaa394e"},
	}
	for _, kind := range AllKinds() {
		want, ok := pinned[kind.String()]
		if !ok {
			t.Errorf("%v: no pinned digests; pin its seed-1 trials 0-2", kind)
			continue
		}
		for trial, w := range want {
			c := GenCase(kind, 1, int64(trial))
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(c.Describe()))); got != w {
				t.Errorf("%v trial %d: Describe digest %s, pinned %s\n%s", kind, trial, got, w, c.Describe())
			}
		}
	}
	if len(pinned) != len(AllKinds()) {
		t.Errorf("%d kinds pinned, %d kinds exist", len(pinned), len(AllKinds()))
	}
}

// genCaseSink keeps BenchmarkGenCase's result live.
var genCaseSink Case

// BenchmarkGenCase generates one case per op, cycling through every kind
// at seed 1, as a campaign's workers do.
func BenchmarkGenCase(b *testing.B) {
	kinds := AllKinds()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		genCaseSink = GenCase(kinds[i%len(kinds)], 1, int64(i))
	}
}
