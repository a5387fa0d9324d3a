package supertask

import (
	"testing"

	"pfair/internal/core"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// The supertask per-slot work (serving components, checking component
// deadlines) runs inside the scheduler's OnSlot callback on the shared
// engine, so it must obey the same hot-path contract as the scheduler
// itself: 0 allocs per slot in steady state. The workload is reweighted,
// so the Holman–Anderson guarantee keeps the component-miss slow path
// cold.

func steadySystem(tb testing.TB, opts ...engine.Option) *System {
	tb.Helper()
	sys := NewSystem(2, core.PD2, opts...)
	st := &Supertask{Name: "S", Components: task.Set{
		task.MustNew("x", 1, 4), task.MustNew("y", 1, 8),
	}}
	if err := joinSupertask(sys, st, true); err != nil {
		tb.Fatal(err)
	}
	if err := join(sys, task.MustNew("t", 1, 2)); err != nil {
		tb.Fatal(err)
	}
	return sys
}

// TestSlotSteadyStateZeroAllocs pins the unobserved per-slot path
// (engine step + supertask serve + component deadline scan) at
// 0 allocs/op.
func TestSlotSteadyStateZeroAllocs(t *testing.T) {
	sys := steadySystem(t)
	res := sys.Run(2000)
	if n := len(res.ComponentMisses); n != 0 {
		t.Fatalf("reweighted workload missed %d component deadlines; the guard needs a miss-free steady state", n)
	}
	if allocs := testing.AllocsPerRun(500, func() { sys.sched.Step() }); allocs != 0 {
		t.Errorf("slot allocates %v/op in steady state, want 0", allocs)
	}
}

// TestSlotObservedZeroAllocs repeats the guard with a live recorder:
// component schedule/miss emissions are nil-guarded and must not box.
func TestSlotObservedZeroAllocs(t *testing.T) {
	rec := obs.NewRecorder(1 << 12)
	sys := steadySystem(t, engine.WithRecorder(rec))
	sys.Run(2000)
	if allocs := testing.AllocsPerRun(500, func() { sys.sched.Step() }); allocs != 0 {
		t.Errorf("observed slot allocates %v/op in steady state, want 0", allocs)
	}
	if rec.Total() == 0 {
		t.Fatal("recorder attached but no events recorded")
	}
}

// BenchmarkSlotAllocs reports the steady-state per-slot cost of the
// combined scheduler + supertask path.
func BenchmarkSlotAllocs(b *testing.B) {
	sys := steadySystem(b)
	sys.Run(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.sched.Step()
	}
}
