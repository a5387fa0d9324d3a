// Scale benchmarks. Where bench_test.go reproduces the paper's figures
// (hundreds of tasks), these push the slot
// hot path to a million tasks on a 64-processor machine and report
// throughput as slots/s alongside ns/op. scripts/bench.sh picks the
// metric up into BENCH_scale.json, and scripts/bench_guard.sh gates
// regressions against that baseline.
//
// The workloads are built directly (cost-1 tasks round-robined over a
// period menu) rather than through taskgen: rejection sampling a million
// weights would dominate setup time, and the scale axis only needs total
// weight to clear admission, not a calibrated utilization distribution.
package pfair_test

import (
	"fmt"
	"testing"

	"pfair/internal/core"
	"pfair/internal/supertask"
	"pfair/internal/task"
)

// scalePeriods is the scale-run period menu. With cost-1 tasks the menu
// sets the weight floor: 2^20 tasks round-robined over it carry ≈40
// total weight, inside a 64-processor admission bound.
var scalePeriods = []int64{16384, 24576, 32768, 49152}

// scaleSet builds n cost-1 tasks round-robined over the menu. Deterministic
// and allocation-light: scale setup joins the set once per benchmark
// invocation, so generation must not dwarf the measured region.
func scaleSet(prefix string, n int, periods []int64) task.Set {
	set := make(task.Set, n)
	for i := range set {
		set[i] = task.MustNew(fmt.Sprintf("%s%d", prefix, i), 1, periods[i%len(periods)])
	}
	return set
}

// BenchmarkScalePD2 measures PD²'s per-slot cost with 2^20 tasks on 64
// processors. One op is one slot: release the due subtasks, pick 64,
// dispatch, advance.
func BenchmarkScalePD2(b *testing.B) {
	const m = 64
	const n = 1 << 20
	b.Run(fmt.Sprintf("M=%d,tasks=%d", m, n), func(b *testing.B) {
		set := scaleSet("T", n, scalePeriods)
		s := core.NewScheduler(m, core.PD2, core.Options{})
		for _, t := range set {
			if err := s.Join(t); err != nil {
				b.Fatalf("join %s: %v", t.Name, err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "slots/s")
	})
}

// BenchmarkScaleSupertask measures the §5.5 hierarchy at scale: 2^16
// components collapsed into ~weight-1 supertasks, so the global PD² tier
// arbitrates only among the collapsed heads while the
// per-supertask EDF tier serves the components. The component count stays
// at 2^16 because the system's per-slot deadline sweep is linear in
// components — which is exactly the motivation for collapsing before the
// global comparator rather than after.
func BenchmarkScaleSupertask(b *testing.B) {
	const m = 16
	const n = 1 << 16
	// Quarter-scale periods: heavier components, so the collapse yields
	// enough ~weight-1 supertasks (≈11) to occupy the processors.
	periods := []int64{4096, 6144, 8192, 12288}
	b.Run(fmt.Sprintf("M=%d,comps=%d", m, n), func(b *testing.B) {
		set := scaleSet("c", n, periods)
		groups, err := supertask.Collapse("S", set, true)
		if err != nil {
			b.Fatalf("collapse: %v", err)
		}
		sys := supertask.NewSystem(m, core.PD2)
		for _, g := range groups {
			if err := sys.AddSupertask(g, true); err != nil {
				b.Fatalf("add %s: %v", g.Name, err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		sys.Run(int64(b.N))
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "slots/s")
	})
}
