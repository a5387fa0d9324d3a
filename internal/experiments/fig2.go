package experiments

import (
	"time"

	"pfair/internal/core"
	"pfair/internal/edf"
	"pfair/internal/parallel"
	"pfair/internal/stats"
	"pfair/internal/task"
	"pfair/internal/taskgen"
)

// Experiment tags keep the SubSeed streams of different sweeps disjoint
// even when they share a base seed and point keys.
const (
	seedFig2a int64 = iota + 1
	seedFig2b
	seedFig3
	seedQuantum
	seedResponse
	seedSync
)

// Fig2Config scales the Figure 2 measurement. The paper's full protocol is
// SetsPerN = 1000 and Horizon = 1e6; the defaults below finish in seconds
// and show the same trends.
type Fig2Config struct {
	Ns       []int // task counts (paper: 15..1000)
	SetsPerN int
	Horizon  int64 // slots simulated per set
	Seed     int64
	// Workers fans independent task-set trials out over this many
	// goroutines; values ≤ 1 keep the serial path. Results are
	// byte-identical for every worker count (each trial has its own
	// SubSeed-derived generator and result slot). Note that concurrent
	// trials share memory bandwidth, so for publication-grade absolute
	// timings use Workers = 1; parallel runs preserve the trends.
	Workers int
	// Deterministic replaces the wall-clock measurement with a
	// deterministic per-slot work proxy (scheduler decision counts). The
	// determinism regression tests use it to compare parallel and serial
	// harness output byte for byte, which real timings never are.
	Deterministic bool
}

// DefaultFig2Config returns the scaled-down defaults.
func DefaultFig2Config() Fig2Config {
	return Fig2Config{
		Ns:       []int{15, 30, 50, 75, 100, 250, 500, 750, 1000},
		SetsPerN: 10,
		Horizon:  20000,
		Seed:     1,
	}
}

// Fig2aPoint is one x-position of Figure 2(a): mean per-invocation
// scheduling cost on one processor, in nanoseconds (the paper reports µs
// on a 933 MHz machine; shape, not scale, is the reproduction target).
type Fig2aPoint struct {
	N            int
	EDFNanos     float64
	EDFRelErr    float64 // 99% CI half-width / mean
	PD2Nanos     float64
	PD2RelErr    float64
	EDFPerSecond float64 // invocations per simulated slot, for context
}

// fig2Trial carries one task set's measurements out of the worker pool.
type fig2Trial struct {
	edf   edfMeasurement
	edfOK bool
	pd2   float64
}

// Fig2a measures the mean per-invocation cost of the EDF and PD²
// schedulers on one processor over random task sets with total utilization
// at most one.
func Fig2a(cfg Fig2Config) []Fig2aPoint {
	var out []Fig2aPoint
	for _, n := range cfg.Ns {
		trials := make([]fig2Trial, cfg.SetsPerN)
		parallel.For(cfg.Workers, cfg.SetsPerN, func(s int) {
			g := taskgen.New(taskgen.SubSeed(cfg.Seed, seedFig2a, int64(n), int64(s)))
			set := mustSet(g.SetMaxUtil("T", n, 1.0, taskgen.DefaultPeriodsSlots))
			trials[s].edf, trials[s].edfOK = measureEDF(set, cfg.Horizon, cfg.Deterministic)
			trials[s].pd2 = measurePD2(set, 1, cfg.Horizon, cfg.Deterministic)
		})
		var edfNs, pd2Ns, edfInvPerSlot stats.Sample
		for _, tr := range trials {
			if tr.edfOK {
				edfNs.Add(tr.edf.nanosPerInvocation)
				edfInvPerSlot.Add(tr.edf.invocationsPerSlot)
			}
			pd2Ns.Add(tr.pd2)
		}
		out = append(out, Fig2aPoint{
			N:            n,
			EDFNanos:     edfNs.Mean(),
			EDFRelErr:    edfNs.RelErr99(),
			PD2Nanos:     pd2Ns.Mean(),
			PD2RelErr:    pd2Ns.RelErr99(),
			EDFPerSecond: edfInvPerSlot.Mean(),
		})
	}
	return out
}

// Fig2bPoint is one (m, N) cell of Figure 2(b).
type Fig2bPoint struct {
	M        int
	N        int
	PD2Nanos float64
	RelErr   float64
}

// Fig2b measures PD²'s per-invocation cost on 2, 4, 8, and 16 processors.
func Fig2b(cfg Fig2Config) []Fig2bPoint {
	var out []Fig2bPoint
	for _, m := range []int{2, 4, 8, 16} {
		for _, n := range cfg.Ns {
			trials := make([]float64, cfg.SetsPerN)
			parallel.For(cfg.Workers, cfg.SetsPerN, func(s int) {
				g := taskgen.New(taskgen.SubSeed(cfg.Seed, seedFig2b, int64(1000*m+n), int64(s)))
				set := mustSet(g.SetMaxUtil("T", n, float64(m), taskgen.DefaultPeriodsSlots))
				trials[s] = measurePD2(set, m, cfg.Horizon, cfg.Deterministic)
			})
			var pd2Ns stats.Sample
			for _, v := range trials {
				pd2Ns.Add(v)
			}
			out = append(out, Fig2bPoint{M: m, N: n, PD2Nanos: pd2Ns.Mean(), RelErr: pd2Ns.RelErr99()})
		}
	}
	return out
}

// measurePD2 returns the mean wall-clock nanoseconds per PD² invocation
// (one invocation per slot) over the horizon. In deterministic mode it
// instead returns the mean scheduler decisions (allocations plus context
// switches) per slot — a pure function of the task set that exercises the
// same simulation path.
func measurePD2(set task.Set, m int, horizon int64, deterministic bool) float64 {
	s := core.NewScheduler(m, core.PD2, core.Options{})
	for _, t := range set {
		if err := s.Join(t); err != nil {
			// SetMaxUtil keeps Σu ≤ m up to rounding; skip any task the
			// rounding pushed over.
			continue
		}
	}
	if deterministic {
		s.RunUntil(horizon)
		st := s.Stats()
		return float64(st.Allocations+st.ContextSwitches) / float64(horizon)
	}
	start := time.Now() //pfair:allowtime Figure 2 measures wall-clock scheduling cost by design
	s.RunUntil(horizon)
	elapsed := time.Since(start) //pfair:allowtime Figure 2 measures wall-clock scheduling cost by design
	return float64(elapsed.Nanoseconds()) / float64(horizon)
}

type edfMeasurement struct {
	nanosPerInvocation float64
	invocationsPerSlot float64
}

// measureEDF returns the mean wall-clock nanoseconds per EDF scheduler
// invocation over the horizon. In deterministic mode the nanosecond field
// carries the invocations-per-slot proxy instead of a timing.
func measureEDF(set task.Set, horizon int64, deterministic bool) (edfMeasurement, bool) {
	s := edf.NewSimulator()
	s.MeasureOverhead(!deterministic)
	for _, t := range set {
		if err := s.Add(edf.Config{Task: t}); err != nil {
			return edfMeasurement{}, false
		}
	}
	s.Run(horizon)
	st := s.Stats()
	if st.Invocations == 0 {
		return edfMeasurement{}, false
	}
	perSlot := float64(st.Invocations) / float64(horizon)
	nanos := perSlot
	if !deterministic {
		nanos = float64(st.SchedulingTime.Nanoseconds()) / float64(st.Invocations)
	}
	return edfMeasurement{nanosPerInvocation: nanos, invocationsPerSlot: perSlot}, true
}
