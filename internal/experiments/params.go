// Package experiments regenerates the data behind every figure in the
// paper's evaluation:
//
//   - Figure 1: window layouts of a weight-8/11 periodic task and its
//     intra-sporadic variant.
//   - Figure 2: per-invocation scheduling overhead of EDF vs PD² on one
//     processor (a) and of PD² on 2–16 processors (b), measured in
//     wall-clock time on the host.
//   - Figure 3: minimum processors needed by PD² vs EDF-FF as total
//     utilization grows, with Equation (3) overhead accounting, for task
//     counts 50–1000.
//   - Figure 4: the schedulability loss split into system-overhead and
//     bin-packing components.
//   - Figure 5: the supertask deadline miss and its reweighting fix.
//   - Quantum sweep (Section 4's trade-off discussion): schedulability
//     loss as a function of quantum size.
//
// Every experiment takes an explicit seed and scale so the full paper
// protocol (1000 task sets per point, 10⁶-slot horizons) and a laptop-
// scale smoke run share one code path. EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"sync"

	"pfair/internal/overhead"
	"pfair/internal/task"
	"pfair/internal/taskgen"
)

// mustSet unwraps taskgen results inside the experiment harness: every
// experiment's generator parameters are statically valid, so an error here
// is a programmer error and panics (parallel.For propagates it).
func mustSet(s task.Set, err error) task.Set {
	if err != nil {
		//pfair:allowpanic experiment generator parameters are statically valid, per the doc comment
		panic(err)
	}
	return s
}

// generators lends each Figure 3/4 and quantum-sweep trial a generator
// to reseed with its own seed. Reseeding is O(1) and allocates nothing,
// and the trial draws exactly what taskgen.New(seed) would.
var generators = sync.Pool{New: func() any { return taskgen.New(0) }}

// DefaultSchedPD2 models the PD² per-invocation cost in µs as a function
// of processors and tasks, fitted to the shape of the paper's Figure 2
// measurements (≈2–3 µs at 100 tasks on one processor, ≈8 µs at 1000
// tasks, <20 µs at 200 tasks on 16 processors). The Figure 3/4 harness
// uses it by default so those figures do not depend on the speed of the
// machine the reproduction runs on; pass measured values to override.
//
// The paper measured only up to 16 processors; its N = 250/500/1000
// sweeps reach 60–120. Extrapolating the 1 µs/processor slope that far
// would make the scheduler consume a visible fraction of every 1 ms
// quantum, rejecting heavy tasks outright — our own Figure 2(b)
// measurements show the per-slot cost growing sublinearly (≈0.14 µs per
// processor between 8 and 16), so beyond the measured range the model's
// slope drops to 0.25 µs/processor. EXPERIMENTS.md discusses the
// sensitivity.
func DefaultSchedPD2(m, n int) int64 {
	s := 2 + int64(6*n)/1000
	if m <= 16 {
		return s + int64(m-1)
	}
	return s + 15 + int64(m-16)/4
}

// DefaultSchedEDF models the EDF per-invocation cost in µs (≈1–2 µs,
// growing slowly with the task count, per Figure 2(a)).
func DefaultSchedEDF(n int) int64 {
	return 1 + int64(n)/1000
}

// PaperParams assembles the Section 4 constants: 1 ms quantum, 5 µs
// context switch, the default scheduling-cost models, and the given
// per-task cache-delay table (usually from taskgen.CacheDelays, uniform
// mean 33.3 µs as in the paper).
func PaperParams(n int, delays map[string]int64) overhead.Params {
	return overhead.Params{
		Quantum:       1000,
		ContextSwitch: 5,
		SchedEDF:      DefaultSchedEDF(n),
		SchedPD2:      DefaultSchedPD2,
		CacheDelay: func(t *task.Task) int64 {
			return delays[t.Name]
		},
	}
}
