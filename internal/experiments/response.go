package experiments

import (
	"pfair/internal/core"
	"pfair/internal/parallel"
	"pfair/internal/stats"
	"pfair/internal/task"
	"pfair/internal/taskgen"
)

// Section 2 motivates the ERfair variant: "Work-conserving algorithms are
// of interest because they tend to improve job response times, especially
// in lightly-loaded systems." This experiment quantifies that claim: the
// same light workloads are scheduled with plain Pfair eligibility and with
// early release, and mean job response times are compared.

// ResponsePoint is one load level of the comparison.
type ResponsePoint struct {
	// Load is the fraction of the platform the workload uses.
	Load float64
	// PfairResponse and ERfairResponse are mean job response times in
	// slots (completion − release).
	PfairResponse  float64
	ERfairResponse float64
	// Speedup is Pfair/ERfair mean response (> 1 when early release
	// helps).
	Speedup float64
}

// ResponseConfig scales the experiment.
type ResponseConfig struct {
	M       int
	N       int
	Loads   []float64 // fractions of M
	Sets    int
	Horizon int64
	Seed    int64
	// Workers fans the per-load trials out over this many goroutines
	// (≤ 1 = serial); the output is byte-identical for any worker count.
	Workers int
}

// DefaultResponseConfig returns light-to-moderate loads on 4 processors.
func DefaultResponseConfig() ResponseConfig {
	return ResponseConfig{
		M:       4,
		N:       16,
		Loads:   []float64{0.2, 0.4, 0.6, 0.8},
		Sets:    20,
		Horizon: 4000,
		Seed:    5,
	}
}

// responseTrial carries one task set's two scheduler runs out of the pool.
type responseTrial struct {
	pf, er     float64
	pfOK, erOK bool
}

// ResponseTimes runs the comparison.
func ResponseTimes(cfg ResponseConfig) []ResponsePoint {
	var out []ResponsePoint
	for _, load := range cfg.Loads {
		trials := make([]responseTrial, cfg.Sets)
		parallel.For(cfg.Workers, cfg.Sets, func(s int) {
			g := taskgen.New(taskgen.SubSeed(cfg.Seed, seedResponse, int64(load*1000), int64(s)))
			set := mustSet(g.Set("T", cfg.N, load*float64(cfg.M), taskgen.DefaultPeriodsSlots))
			trials[s].pf, trials[s].pfOK = meanResponse(set, cfg.M, cfg.Horizon, false)
			trials[s].er, trials[s].erOK = meanResponse(set, cfg.M, cfg.Horizon, true)
		})
		var pf, er stats.Sample
		for _, tr := range trials {
			if tr.pfOK {
				pf.Add(tr.pf)
			}
			if tr.erOK {
				er.Add(tr.er)
			}
		}
		p := ResponsePoint{Load: load, PfairResponse: pf.Mean(), ERfairResponse: er.Mean()}
		if p.ERfairResponse > 0 {
			p.Speedup = p.PfairResponse / p.ERfairResponse
		}
		out = append(out, p)
	}
	return out
}

// meanResponse schedules the set and returns the mean job response time:
// for job j of a task with cost e, the completion slot of subtask j·e plus
// one, minus the job's release (j−1)·p.
func meanResponse(set task.Set, m int, horizon int64, earlyRelease bool) (float64, bool) {
	s := core.NewScheduler(m, core.PD2, core.Options{EarlyRelease: earlyRelease})
	var resp stats.Sample
	// The set joins in order, so a task's id is its index in set.
	s.OnSlot(func(t int64, assigned []core.Assignment) {
		for _, a := range assigned {
			tk := set[a.Task]
			if a.Subtask%tk.Cost == 0 {
				job := a.Subtask / tk.Cost
				release := (job - 1) * tk.Period
				resp.Add(float64(t + 1 - release))
			}
		}
	})
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			return 0, false
		}
	}
	s.RunUntil(horizon)
	if resp.N() == 0 {
		return 0, false
	}
	return resp.Mean(), true
}
