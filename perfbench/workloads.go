package main

import (
	"fmt"
	"math"
	"reflect"

	"pfair/internal/core"
	"pfair/internal/edf"
	"pfair/internal/engine"
	"pfair/internal/experiments"
	"pfair/internal/fuzz"
	"pfair/internal/obs"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// runner is one workload's state after set-up.
type runner interface {
	// round runs round r and returns the operations it completed. With a
	// non-nil tracer it records a span around every call into a layer. A
	// round that lasts more than a fraction of a second calls lap between
	// its calls into the program, so the reference is timed throughout.
	round(r int, tr *tracer, lap func()) int64
	// check verifies every output produced so far and returns how many
	// outputs it checked and how many failed, with a line per failure.
	check() (attempted, failed int64, problems []string)
}

// workload is one benchmark workload: a set-up step building its inputs
// from the seed, and the runner measured after it.
type workload struct {
	name string
	// metric is the name the issue defining this benchmark gave the
	// workload's ops_per_s, and unit what it counts; the summary on
	// standard error prints both.
	metric, unit string
	// setup generates the inputs and builds the measured objects. traced
	// attaches the engine phase profiler where the workload steps an
	// engine.
	setup func(seed int64, traced bool) (runner, error)
}

var workloads = []workload{
	{"sweep", "sweep_sets_per_s", "task sets/s", setupSweep},
	{"sim", "pd2_slots_per_s", "slots/s", simSetup(pathPD2)},
	{"sim-edf", "edf_slots_per_s", "time units/s", simSetup(pathEDF)},
	{"sim-rec", "pd2_recorded_slots_per_s", "slots/s", simSetup(pathRec)},
	{"fuzz", "fuzz_cases_per_s", "cases/s", setupFuzz},
}

// pinnedSweepDigest is the digest of the rendered Figure 3 and 4 tables
// of every sweep round at seed 1. A change that moves it changed the
// figures, not just their cost.
const pinnedSweepDigest = "3c9334a2941bb4ff32c27f9b274e40f4b7057a1b22980f4a7745fa5f7400f2e0"

// sweepRunner is the Figure 3/4 sweep. It never steps an engine.
type sweepRunner struct {
	seed    int64
	rounds  []int
	outputs []map[int][]experiments.Fig3Point
}

func setupSweep(seed int64, _ bool) (runner, error) {
	// Fig3 generates its sets inside each round. Set-up stands in for that
	// with genSweepSets, which generates a round's worth of sets the way
	// Fig3 does, so taskgen costs show in setup_s.
	genSweepSets(seed)
	return &sweepRunner{seed: seed}, nil
}

func (s *sweepRunner) round(r int, tr *tracer, lap func()) int64 {
	cfg := sweepConfig(s.seed)
	// One Fig3 call per task count, a lap apart: the N = 500 call alone
	// takes about a second. Each (N, step, set) draws its own generator,
	// so the points are the ones a single call over every N yields.
	out := make(map[int][]experiments.Fig3Point, len(cfg.Ns))
	for i, n := range cfg.Ns {
		if i > 0 {
			lap()
		}
		one := cfg
		one.Ns = []int{n}
		sp := tr.begin(fmt.Sprintf("experiments.Fig3/n%d", n))
		out[n] = experiments.Fig3(one)[n]
		tr.end(sp)
	}
	s.rounds = append(s.rounds, r)
	s.outputs = append(s.outputs, out)
	return int64(len(cfg.Ns) * cfg.Steps * cfg.SetsPerStep)
}

func (s *sweepRunner) check() (attempted, failed int64, problems []string) {
	for i, out := range s.outputs {
		for _, n := range sweepNs {
			pts := out[n]
			attempted++
			if len(pts) != sweepSteps {
				failed++
				problems = append(problems, fmt.Sprintf("sweep round %d n=%d: %d points, want %d", s.rounds[i], n, len(pts), sweepSteps))
				continue
			}
			for _, p := range pts {
				// Every set needs at least ⌈U⌉ ≥ U processors under either
				// scheme, so each point's means are at least its mean U.
				attempted++
				if p.PD2Procs < p.TotalUtil || p.FFProcs < p.TotalUtil || (p.TotalUtil > 0 && math.Min(p.PD2Procs, p.FFProcs) < 1) {
					failed++
					problems = append(problems, fmt.Sprintf("sweep round %d n=%d U=%.3f: PD² %.3f, FF %.3f processors", s.rounds[i], n, p.TotalUtil, p.PD2Procs, p.FFProcs))
				}
			}
		}
		if s.seed == 1 {
			attempted++
			if d := sweepOutputDigest(sweepNs, out); d != pinnedSweepDigest {
				failed++
				problems = append(problems, fmt.Sprintf("sweep seed 1 round %d: Fig 3/4 digest %s, pinned %s", s.rounds[i], d, pinnedSweepDigest))
			}
		}
	}
	return attempted, failed, problems
}

// simPath selects which Figure 2 path a sim runner times.
type simPath int

const (
	pathPD2 simPath = iota // core.Scheduler.RunUntil, unobserved
	pathEDF                // edf.Simulator.Run on the M = 1 sets
	pathRec                // RunUntil with a default-capacity recorder attached
)

// simRunner steps every set of the sim grid simHorizon slots (sim-edf:
// edfRoundPeriods times as many time units) further each round. The
// schedulers are built once, in set-up; rounds continue them.
type simRunner struct {
	path    simPath
	sets    []simSet
	pd2     []*core.Scheduler
	edf     []*edf.Simulator
	horizon int64
	errs    []string
	// first holds each recorded scheduler's stats after round 0, for the
	// recorded-vs-unrecorded check.
	first []core.Stats
}

func simSetup(path simPath) func(int64, bool) (runner, error) {
	return func(seed int64, traced bool) (runner, error) { return setupSim(seed, traced, path) }
}

func setupSim(seed int64, traced bool, path simPath) (runner, error) {
	s := &simRunner{path: path, sets: genSimSets(seed, path == pathEDF)}
	for _, ss := range s.sets {
		var opts []engine.Option
		if traced {
			opts = append(opts, engine.WithProfiler(obs.NewPhaseProfiler(nil, 1)))
		}
		if path == pathEDF {
			sim := edf.NewSimulator(opts...)
			sim.MeasureOverhead(false)
			for _, t := range ss.set {
				if err := sim.Add(edf.Config{Task: t}); err != nil {
					return nil, fmt.Errorf("edf add %s: %w", t.Name, err)
				}
			}
			s.edf = append(s.edf, sim)
			continue
		}
		sched := core.NewScheduler(ss.m, core.PD2, core.Options{}, opts...)
		if path == pathRec {
			// As pfairsim -trace attaches it.
			sched.Observe(obs.NewRecorder(obs.DefaultRingCapacity), nil)
		}
		if err := joinAll(sched, ss.set); err != nil {
			return nil, err
		}
		s.pd2 = append(s.pd2, sched)
	}
	return s, nil
}

func (s *simRunner) round(r int, tr *tracer, _ func()) int64 {
	step, name := int64(simHorizon), "core.Scheduler.RunUntil"
	if s.path == pathEDF {
		step, name = edfRoundPeriods*simHorizon, "edf.Simulator.Run"
	}
	h := s.horizon + step
	n := len(s.pd2) + len(s.edf)
	for i := 0; i < n; i++ {
		sp := tr.begin(name)
		var err error
		if s.path == pathEDF {
			err = s.edf[i].Run(h)
		} else {
			err = s.pd2[i].RunUntil(h)
		}
		tr.end(sp)
		if err != nil {
			s.errs = append(s.errs, fmt.Sprintf("set %d round %d: %v", i, r, err))
		}
	}
	s.horizon = h
	if s.path == pathRec && s.first == nil {
		for _, sched := range s.pd2 {
			s.first = append(s.first, sched.Stats())
		}
	}
	return int64(n) * step
}

func (s *simRunner) check() (attempted, failed int64, problems []string) {
	fail := func(format string, args ...any) {
		failed++
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	attempted += int64(len(s.errs))
	for _, e := range s.errs {
		fail("%s", e)
	}
	for i, ss := range s.sets {
		attempted++
		if s.path == pathEDF {
			if st := s.edf[i].Stats(); len(st.Misses) > 0 {
				fail("EDF set %d (n=%d): %d misses, first %+v", i, len(ss.set), len(st.Misses), st.Misses[0])
			}
			continue
		}
		sched := s.pd2[i]
		sched.FinishMisses(s.horizon)
		st := sched.Stats()
		if len(st.Misses) > 0 {
			fail("PD² set %d (M=%d n=%d): %d misses, first %+v", i, ss.m, len(ss.set), len(st.Misses), st.Misses[0])
			continue
		}
		// Pfair lag bound: every task's allocation lies within one
		// quantum of wt·H, so the total lies within N of Σ wt·H.
		lag := ss.set.TotalWeight().MulRat(rational.FromInt(s.horizon)).Sub(rational.FromInt(st.Allocations))
		if n := int64(len(ss.set)); lag.CmpInt(n) >= 0 || lag.CmpInt(-n) <= 0 {
			fail("PD² set %d (M=%d): allocations %d vs Σwt·H off by %s", i, ss.m, st.Allocations, lag)
		}
	}
	if s.path == pathRec {
		// Recorded and unrecorded runs must make the same decisions.
		for i, ss := range s.sets {
			attempted++
			twin := core.NewScheduler(ss.m, core.PD2, core.Options{})
			err := joinAll(twin, ss.set)
			if err == nil {
				err = twin.RunUntil(simHorizon)
			}
			if err != nil {
				fail("unrecorded twin %d: %v", i, err)
				continue
			}
			if i >= len(s.first) || !reflect.DeepEqual(twin.Stats(), s.first[i]) {
				fail("set %d (M=%d): recorded stats differ from unrecorded ones", i, ss.m)
			}
		}
	}
	return attempted, failed, problems
}

// fuzzRunner is the differential fuzz campaign over the pinned kinds.
type fuzzRunner struct {
	seed    int64
	kinds   []fuzz.Kind
	reports []fuzz.Report
}

func setupFuzz(seed int64, _ bool) (runner, error) {
	kinds, err := fuzzKinds()
	if err != nil {
		return nil, err
	}
	// Input generation: the first round's cases (fuzz.Run regenerates
	// them from the same seed).
	genFuzzCases(kinds, fuzzSeed(seed, 0), fuzzTrials)
	return &fuzzRunner{seed: seed, kinds: kinds}, nil
}

func (f *fuzzRunner) round(r int, tr *tracer, _ func()) int64 {
	cfg := fuzz.Config{Seed: fuzzSeed(f.seed, r), Trials: fuzzTrials, Kinds: f.kinds, Workers: 1, NoShrink: true}
	var rep fuzz.Report
	if tr == nil {
		rep = fuzz.Run(cfg)
	} else {
		// One campaign per kind, one span each. A case depends only on
		// (seed, kind, trial), so the cases are the ones a single
		// campaign over every kind checks.
		for _, k := range f.kinds {
			one := cfg
			one.Kinds = []fuzz.Kind{k}
			sp := tr.begin("fuzz.Run/" + k.String())
			part := fuzz.Run(one)
			tr.end(sp)
			rep.Cases += part.Cases
			rep.Explained += part.Explained
			rep.Failures = append(rep.Failures, part.Failures...)
		}
	}
	f.reports = append(f.reports, rep)
	return int64(rep.Cases)
}

func (f *fuzzRunner) check() (attempted, failed int64, problems []string) {
	want := len(f.kinds) * fuzzTrials
	for i, rep := range f.reports {
		attempted += int64(want)
		if rep.Cases != want {
			failed++
			problems = append(problems, fmt.Sprintf("fuzz round %d: %d cases, want %d", i, rep.Cases, want))
		}
		for _, fl := range rep.Failures {
			failed++
			problems = append(problems, fmt.Sprintf("fuzz %s: %v", fl.Case.Replay(), fl.Violations))
		}
	}
	return attempted, failed, problems
}

// joinAll admits every task of set.
func joinAll(s *core.Scheduler, set task.Set) error {
	for _, t := range set {
		if err := s.Join(t); err != nil {
			return fmt.Errorf("join %s on M=%d: %w", t.Name, s.Processors(), err)
		}
	}
	return nil
}
