package experiments

import "testing"

// BenchmarkFig3Sweep runs one round of the Figure 3/4 sweep at the shape
// perfbench's sweep workload times: every N of the paper, 12 utilization
// steps, one set per step, one worker. It is a profiling target
// (go test -bench Fig3Sweep -cpuprofile), not a guarded baseline.
func BenchmarkFig3Sweep(b *testing.B) {
	cfg := Fig3Config{Ns: []int{50, 100, 250, 500}, Steps: 12, SetsPerStep: 1, Seed: 1, Workers: 1}
	b.ReportAllocs()
	for range b.N {
		Fig3(cfg)
	}
}
