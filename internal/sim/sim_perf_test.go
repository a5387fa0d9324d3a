package sim

import (
	"testing"

	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// Both sim policies ride the shared slot engine; these guards pin their
// steady-state step loops at 0 allocs/op. Job releases inherently
// allocate (one gjob per released job), so the global-EDF guard uses
// long-running jobs whose release/completion events fall outside the
// measured window: what remains is the pure per-slot path — release
// scan, heap pick, dispatch, requeue — which must be allocation-free.

func longJobGlobal(tb testing.TB, opts ...engine.Option) (*globalSim, *engine.Engine) {
	tb.Helper()
	set := task.Set{
		task.MustNew("h1", 1<<30, 1<<31),
		task.MustNew("h2", 1<<30, 1<<31),
	}
	g := newGlobalSim(set, 2, GlobalEDF)
	eng := engine.New(g, opts...)
	g.register(eng.Recorder())
	return g, eng
}

// TestGlobalStepSteadyStateZeroAllocs pins the unobserved global-EDF
// slot loop at 0 allocs/op between job-release events.
func TestGlobalStepSteadyStateZeroAllocs(t *testing.T) {
	_, eng := longJobGlobal(t)
	eng.Run(1024)
	if allocs := testing.AllocsPerRun(500, func() { eng.Step() }); allocs != 0 {
		t.Errorf("global-EDF step allocates %v/op in steady state, want 0", allocs)
	}
}

// TestGlobalStepObservedZeroAllocs repeats the guard with a recorder
// attached: schedule/idle emissions must not allocate.
func TestGlobalStepObservedZeroAllocs(t *testing.T) {
	rec := obs.NewRecorder(1 << 12)
	_, eng := longJobGlobal(t, engine.WithRecorder(rec))
	eng.Run(1024)
	if allocs := testing.AllocsPerRun(500, func() { eng.Step() }); allocs != 0 {
		t.Errorf("observed global-EDF step allocates %v/op in steady state, want 0", allocs)
	}
	if rec.Total() == 0 {
		t.Fatal("recorder attached but no events recorded")
	}
}

// TestVQStepSteadyStateZeroAllocs pins the variable-quantum policy's
// event loop at 0 allocs/op on a feasible aligned workload (no misses,
// so the miss-recording slow path stays cold). The vq state machine is
// fully preallocated: advancing jobs and subtasks mutates in place.
func TestVQStepSteadyStateZeroAllocs(t *testing.T) {
	tasks := []VQTask{
		{Task: task.MustNew("a", 1, 3)},
		{Task: task.MustNew("b", 1, 4)},
	}
	const quantum = 4
	v := newVQSim(tasks, 1, quantum, Aligned)
	eng := engine.New(v)
	v.register(eng.Recorder())
	eng.Run(10_000)
	if allocs := testing.AllocsPerRun(500, func() { eng.Step() }); allocs != 0 {
		t.Errorf("vq step allocates %v/op in steady state, want 0", allocs)
	}
	if n := len(v.res.Misses); n != 0 {
		t.Fatalf("aligned feasible workload missed %d deadlines; the guard needs a miss-free steady state", n)
	}
}

// BenchmarkGlobalStepAllocs reports the steady-state per-slot cost of
// the global-EDF policy on the engine.
func BenchmarkGlobalStepAllocs(b *testing.B) {
	_, eng := longJobGlobal(b)
	eng.Run(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}
