package experiments

import (
	"pfair/internal/overhead"
	"pfair/internal/parallel"
	"pfair/internal/stats"
	"pfair/internal/task"
	"pfair/internal/taskgen"
)

// QuantumPoint is one quantum size in the Section 4 trade-off sweep.
type QuantumPoint struct {
	QuantumUS int64
	// PD2Procs is the mean minimum processor count at this quantum.
	PD2Procs float64
	// RoundingLoss is the mean weight added purely by rounding execution
	// costs up to whole quanta (larger quanta → more rounding loss).
	RoundingLoss float64
	// OverheadLoss is the mean weight added by Equation (3) inflation
	// (smaller quanta → more per-quantum overhead).
	OverheadLoss float64
	// Infeasible counts sets where some task's inflated weight exceeded
	// one at this quantum.
	Infeasible int
}

// QuantumSweepConfig scales the sweep.
type QuantumSweepConfig struct {
	N         int
	TotalUtil float64
	Sets      int
	QuantaUS  []int64
	Seed      int64
	// Workers fans the per-quantum trials out over this many goroutines
	// (≤ 1 = serial); the output is byte-identical for any worker count.
	Workers int
}

// DefaultQuantumSweepConfig returns defaults spanning 100 µs to 10 ms.
func DefaultQuantumSweepConfig() QuantumSweepConfig {
	return QuantumSweepConfig{
		N:         50,
		TotalUtil: 8,
		Sets:      40,
		QuantaUS:  []int64{100, 200, 500, 1000, 2000, 5000, 10000},
		Seed:      3,
	}
}

// QuantumSweep quantifies the trade-off the paper describes: shrinking the
// quantum reduces rounding loss but multiplies per-quantum scheduling and
// switching overhead; growing it does the reverse. "These trade-offs must
// be carefully analyzed to determine an optimal quantum size."
func QuantumSweep(cfg QuantumSweepConfig) []QuantumPoint {
	var out []QuantumPoint
	for _, q := range cfg.QuantaUS {
		// Trial seeds deliberately exclude q: every quantum evaluates the
		// identical task sets, as the serial harness's per-quantum
		// generator reset used to guarantee.
		trials := make([]quantumResult, cfg.Sets)
		parallel.For(cfg.Workers, cfg.Sets, func(s int) {
			g := taskgen.New(taskgen.SubSeed(cfg.Seed, seedQuantum, int64(s)))
			set := mustSet(g.Set("T", cfg.N, cfg.TotalUtil, taskgen.DefaultPeriodsUS))
			delays := g.CacheDelays(set, 100)
			params := PaperParams(cfg.N, delays)
			params.Quantum = q
			trials[s] = minProcsAtQuantum(set, params)
		})
		var procs, rounding, inflation stats.Sample
		infeasible := 0
		for _, res := range trials {
			if res.Processors < 0 {
				infeasible++
				continue
			}
			procs.AddInt(int64(res.Processors))
			rounding.Add(res.roundingLoss)
			inflation.Add(res.inflationLoss)
		}
		out = append(out, QuantumPoint{
			QuantumUS:    q,
			PD2Procs:     procs.Mean(),
			RoundingLoss: rounding.Mean(),
			OverheadLoss: inflation.Mean(),
			Infeasible:   infeasible,
		})
	}
	return out
}

type quantumResult struct {
	Processors    int
	roundingLoss  float64
	inflationLoss float64
}

// minProcsAtQuantum takes the processor count from overhead.MinProcsPD2
// and splits the weight added at that count into inflation (Equation (3))
// and rounding (cost → whole quanta) components. Periods in the default
// menu are multiples of every quantum in the sweep.
func minProcsAtQuantum(set task.Set, p overhead.Params) quantumResult {
	m := overhead.MinProcsPD2(set, p).Processors
	if m < 0 {
		return quantumResult{Processors: -1}
	}
	s := p.SchedPD2(m, len(set))
	inflU, roundU := 0.0, 0.0
	for _, t := range set {
		infl, _, _ := overhead.InflatePD2(t.Cost, t.Period, p, s, p.CacheDelay(t))
		w := overhead.PD2Weight(infl, t.Period, p.Quantum).Float()
		inflU += float64(infl-t.Cost) / float64(t.Period)
		roundU += w - float64(infl)/float64(t.Period)
	}
	return quantumResult{Processors: m, roundingLoss: roundU, inflationLoss: inflU}
}
