package engine_test

// Shims between the golden dumps and the simulator entry points. This is
// the only file that changed when the loops migrated from the
// pre-refactor *Observed twins to the engine-option form; the dumped
// bytes are asserted identical across that change.

import (
	"pfair/internal/engine"
	"pfair/internal/faults"
	"pfair/internal/obs"
	"pfair/internal/sim"
	"pfair/internal/task"
)

func runGlobalObserved(set task.Set, m int, pol sim.Policy, horizon int64, rec *obs.Recorder) sim.GlobalStats {
	return sim.RunGlobal(set, m, pol, horizon, engine.WithRecorder(rec))
}

func runQuantaObserved(vts []sim.VQTask, m int, q, horizon int64, mode sim.QuantumMode, rec *obs.Recorder) sim.VQResult {
	return sim.RunQuanta(vts, m, q, horizon, mode, engine.WithRecorder(rec))
}

func runFaults(sc faults.Scenario, shed bool) (faults.Outcome, error) {
	return faults.NewDriver().Run(sc, shed)
}
