package experiments

import (
	"fmt"
	"io"

	"pfair/internal/core"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/taskgen"
)

// This file decomposes the Figure 2 measurement: Fig2a/Fig2b report the
// total per-invocation cost of PD², the phases sweep says where inside
// the slot that cost goes, using the engine's sampled phase profiler
// (engine.WithProfiler). The decomposition is the observability layer's
// answer to "why does the cost grow with n": the pick tournament and the
// release drain scale with the ready set, the clock advance does not.

// PhasesConfig scales the phase-cost sweep.
type PhasesConfig struct {
	Ns      []int // task counts to profile
	M       int   // processors
	Horizon int64 // slots simulated per point
	Seed    int64
	Every   int64 // profile one step in every Every
}

// DefaultPhasesConfig returns laptop-scale defaults.
func DefaultPhasesConfig() PhasesConfig {
	return PhasesConfig{
		Ns:      []int{15, 50, 100, 250, 500},
		M:       4,
		Horizon: 20000,
		Seed:    1,
		Every:   32,
	}
}

// PhasesPoint is one profiled task count.
type PhasesPoint struct {
	N    int
	Prof *obs.PhaseProfiler
}

// Phases profiles one PD² scheduler per task count. Points run serially:
// concurrent schedulers would contend for cycles and distort exactly the
// wall-clock measurement being taken.
func Phases(cfg PhasesConfig) []PhasesPoint {
	every := cfg.Every
	if every < 1 {
		every = 32
	}
	points := make([]PhasesPoint, 0, len(cfg.Ns))
	for i, n := range cfg.Ns {
		g := taskgen.New(taskgen.SubSeed(cfg.Seed, int64(i)))
		set := mustSet(g.Set("T", n, 0.95*float64(cfg.M), taskgen.DefaultPeriodsSlots))
		prof := obs.NewPhaseProfiler(nil, every)
		s := core.NewScheduler(cfg.M, core.PD2, core.Options{}, engine.WithProfiler(prof))
		for _, t := range set {
			if err := s.Join(t); err != nil {
				// Rounding can push the total marginally over M; skip.
				continue
			}
		}
		s.RunUntil(cfg.Horizon)
		points = append(points, PhasesPoint{N: n, Prof: prof})
	}
	return points
}

// RenderPhases writes the sweep as a TSV table of mean sampled
// nanoseconds per phase, one row per task count.
func RenderPhases(w io.Writer, cfg PhasesConfig, points []PhasesPoint) {
	every := cfg.Every
	if len(points) > 0 {
		every = points[0].Prof.Every()
	}
	fmt.Fprintf(w, "# engine phase cost decomposition: PD² on m=%d, %d slots/point, sampled every %d steps\n",
		cfg.M, cfg.Horizon, every)
	fmt.Fprintln(w, "# mean sampled ns per phase")
	fmt.Fprintln(w, "n\trelease\tpick\tdispatch\taccount\tnext\tslot")
	mean := func(h *obs.Histogram) int64 {
		if h.Count() == 0 {
			return 0
		}
		return h.Sum() / h.Count()
	}
	for _, p := range points {
		phases := []int64{
			mean(p.Prof.Release), mean(p.Prof.Pick), mean(p.Prof.Dispatch),
			mean(p.Prof.Account), mean(p.Prof.Next),
		}
		var slot int64
		fmt.Fprintf(w, "%d", p.N)
		for _, v := range phases {
			slot += v
			fmt.Fprintf(w, "\t%d", v)
		}
		fmt.Fprintf(w, "\t%d\n", slot)
	}
}
