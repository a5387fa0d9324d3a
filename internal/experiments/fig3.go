package experiments

import (
	"pfair/internal/overhead"
	"pfair/internal/parallel"
	"pfair/internal/stats"
	"pfair/internal/taskgen"
)

// Fig3Config scales the Figure 3/4 sweep. The paper generates, for each
// task count N, 1000 task sets at each total utilization from N/30 to N/3
// and reports the mean minimum processor count under both schemes with
// Equation (3) overheads applied (C = 5 µs, q = 1 ms, D(T) ∈ [0, 100] µs
// with mean 33.3 µs).
type Fig3Config struct {
	Ns          []int
	Steps       int // utilization steps between N/30 and N/3
	SetsPerStep int
	Seed        int64
	// Workers fans the per-step trials out over this many goroutines
	// (≤ 1 = serial); the output is byte-identical for any worker count.
	Workers int
	// Models, if non-nil, supplies scheduling costs measured on this
	// machine (MeasureCostModels) instead of the calibrated defaults —
	// the paper's own measure-then-analyze methodology.
	Models *CostModels
}

// DefaultFig3Config returns scaled-down defaults (the paper uses
// SetsPerStep = 1000).
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		Ns:          []int{50, 100, 250, 500},
		Steps:       12,
		SetsPerStep: 50,
		Seed:        2,
	}
}

// Fig3PeriodsUS is the period menu for the Figure 3/4 sweep: 50 ms–1 s,
// all multiples of the 1 ms quantum. The paper does not state its period
// distribution; periods well above the quantum match its multimedia
// motivation and reproduce its reported shape (near-identical curves at
// low utilization, PD² overtaking EDF-FF at high utilization). Shorter
// periods shift the balance toward EDF-FF by amplifying PD²'s
// quantum-rounding loss — EXPERIMENTS.md quantifies that sensitivity.
var Fig3PeriodsUS = []int64{50000, 100000, 200000, 250000, 500000, 1000000}

// Fig3Point is one x-position of a Figure 3 curve.
type Fig3Point struct {
	N         int
	TotalUtil float64 // cumulative task-set utilization (without overhead)
	MeanUtil  float64 // per-task mean, the Figure 4 x-axis
	PD2Procs  float64 // mean minimum processors for PD²
	PD2RelErr float64
	FFProcs   float64 // mean minimum processors for EDF-FF
	FFRelErr  float64

	// Figure 4 series (loss fractions at the same points).
	LossPfair float64
	LossEDF   float64
	LossFF    float64
}

// fig3Trial carries one task set's evaluation out of the worker pool.
type fig3Trial struct {
	ok                        bool
	pd2, ff                   int64
	lossP, lossE, lossF, util float64
}

// Fig3 sweeps total utilization for each task count and evaluates both
// schemes; the same pass yields Figure 4's loss decomposition. Every
// (N, step, trial) triple seeds its own stream, on a generator borrowed
// for the trial, so trials are independent and the sweep parallelizes
// without changing a byte of output.
func Fig3(cfg Fig3Config) map[int][]Fig3Point {
	out := make(map[int][]Fig3Point, len(cfg.Ns))
	for _, n := range cfg.Ns {
		lo := float64(n) / 30
		hi := float64(n) / 3
		for step := 0; step < cfg.Steps; step++ {
			target := lo + (hi-lo)*float64(step)/float64(cfg.Steps-1)
			trials := make([]fig3Trial, cfg.SetsPerStep)
			parallel.For(cfg.Workers, cfg.SetsPerStep, func(s int) {
				g := generators.Get().(*taskgen.Generator)
				defer generators.Put(g)
				g.Seed(taskgen.SubSeed(cfg.Seed, seedFig3, int64(n), int64(step), int64(s)))
				set := mustSet(g.SetCapped("T", n, target, 0.9, Fig3PeriodsUS))
				delays := g.CacheDelays(set, 100)
				params := PaperParams(n, delays)
				if cfg.Models != nil {
					params = MeasuredParams(*cfg.Models, n, delays)
				}
				losses, pd2, ff := overhead.ComputeLosses(set, params)
				if pd2.Processors < 0 || ff.Processors < 0 {
					return // unschedulable at any count (rare)
				}
				trials[s] = fig3Trial{
					ok:  true,
					pd2: int64(pd2.Processors), ff: int64(ff.Processors),
					lossP: losses.Pfair, lossE: losses.EDF, lossF: losses.FF,
					util: set.TotalUtilization(),
				}
			})
			var pd2S, ffS, lossP, lossE, lossF, util stats.Sample
			for _, tr := range trials {
				if !tr.ok {
					continue
				}
				pd2S.AddInt(tr.pd2)
				ffS.AddInt(tr.ff)
				lossP.Add(tr.lossP)
				lossE.Add(tr.lossE)
				lossF.Add(tr.lossF)
				util.Add(tr.util)
			}
			out[n] = append(out[n], Fig3Point{
				N:         n,
				TotalUtil: util.Mean(),
				MeanUtil:  util.Mean() / float64(n),
				PD2Procs:  pd2S.Mean(),
				PD2RelErr: pd2S.RelErr99(),
				FFProcs:   ffS.Mean(),
				FFRelErr:  ffS.RelErr99(),
				LossPfair: lossP.Mean(),
				LossEDF:   lossE.Mean(),
				LossFF:    lossF.Mean(),
			})
		}
	}
	return out
}

// Crossover returns the total utilization at which PD² first needs no more
// processors than EDF-FF while utilization keeps growing (the point the
// paper highlights where packing loss overtakes PD² overheads), or −1 if
// the curves never cross in the sweep.
func Crossover(points []Fig3Point) float64 {
	// Find the last prefix position where EDF-FF is strictly better, then
	// report the first point after it where PD² is at least as good.
	crossed := -1.0
	ffWasBetter := false
	for _, p := range points {
		if p.FFProcs < p.PD2Procs {
			ffWasBetter = true
			crossed = -1
		} else if ffWasBetter && p.PD2Procs <= p.FFProcs && crossed < 0 {
			crossed = p.TotalUtil
		}
	}
	return crossed
}
