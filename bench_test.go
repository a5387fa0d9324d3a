// Benchmarks regenerating every table/figure of the paper's evaluation,
// plus ablations of the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The Figure 2 benchmarks ARE the experiment: the paper's y-axis is
// per-invocation scheduler cost, which testing.B measures directly
// (ns/op = nanoseconds per scheduled slot / per EDF invocation).
package pfair_test

import (
	"fmt"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/edf"
	"pfair/internal/experiments"
	"pfair/internal/heap"
	"pfair/internal/mpcp"
	"pfair/internal/overhead"
	"pfair/internal/supertask"
	"pfair/internal/task"
	"pfair/internal/taskgen"
	"pfair/internal/wfq"
	"pfair/internal/wrr"
)

// BenchmarkFig1Windows measures the subtask-algebra primitives (release,
// deadline, b-bit, group deadline) underlying Figure 1.
func BenchmarkFig1Windows(b *testing.B) {
	pat := core.NewPattern(8, 11)
	for i := 0; i < b.N; i++ {
		k := int64(i%64 + 1)
		_ = pat.Release(k)
		_ = pat.Deadline(k)
		_ = pat.BBit(k)
		_ = pat.GroupDeadline(k)
	}
}

// fig2Set builds the Figure 2 workload for n tasks and total weight ≤ m.
// At n far above m the generator's per-task weights are rejection-bound
// (Fig2a's N=1000 point admits what fits under total weight 1), which is
// the paper's setup for 2(a); 2(b) instead fixes the load fraction per
// machine size below.
func fig2Set(n, m int) task.Set {
	g := taskgen.New(int64(7000 + n + m))
	set, err := g.SetMaxUtil("T", n, float64(m), taskgen.DefaultPeriodsSlots)
	if err != nil {
		panic(err)
	}
	return set
}

// BenchmarkFig2aPD2 measures PD²'s cost per scheduled slot on one
// processor (Figure 2(a)'s PD² curve); ns/op corresponds to the paper's
// per-invocation microseconds.
func BenchmarkFig2aPD2(b *testing.B) {
	for _, n := range []int{15, 100, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			set := fig2Set(n, 1)
			s := core.NewScheduler(1, core.PD2, core.Options{})
			for _, t := range set {
				if err := s.Join(t); err != nil {
					continue
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkFig2aEDF measures EDF's per-invocation cost on one processor
// (Figure 2(a)'s EDF curve). Each iteration simulates a fixed window and
// normalizes to invocations.
func BenchmarkFig2aEDF(b *testing.B) {
	for _, n := range []int{15, 100, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			set := fig2Set(n, 1)
			var invocations, nanos int64
			for i := 0; i < b.N; i++ {
				s := edf.NewSimulator()
				s.MeasureOverhead(true)
				for _, t := range set {
					if err := s.Add(edf.Config{Task: t}); err != nil {
						b.Fatal(err)
					}
				}
				s.Run(5000)
				invocations += s.Stats().Invocations
				nanos += s.Stats().SchedulingTime.Nanoseconds()
			}
			if invocations > 0 {
				b.ReportMetric(float64(nanos)/float64(invocations), "ns/invocation")
			}
		})
	}
}

// BenchmarkFig2bPD2 measures PD²'s per-slot cost on 2–16 processors
// (Figure 2(b)). Every point runs the same 200 tasks scaled to 75% of
// its machine (0.75·M total weight) with admission asserted, so the
// M-axis varies only the processor count, not the load: an earlier
// version drew one weight-≤M set per point and silently dropped
// rejections, which left M=16 at 58% utilization and made it measure
// cheaper than M=8.
func BenchmarkFig2bPD2(b *testing.B) {
	// The larger half of the slot-period menu: 200 tasks at weight floor
	// 1/p must stay under the smallest target load (0.75·2), which the
	// sub-100-slot periods' floors would alone exceed.
	periods := []int64{100, 200, 400, 500, 1000}
	for _, m := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			g := taskgen.New(int64(7000 + 200 + m))
			set, err := g.Set("T", 200, 0.75*float64(m), periods)
			if err != nil {
				b.Fatal(err)
			}
			s := core.NewScheduler(m, core.PD2, core.Options{})
			for _, t := range set {
				if err := s.Join(t); err != nil {
					b.Fatalf("join %s: %v", t.Name, err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// fig3Workload builds one Figure 3 evaluation unit: a 50-task set at the
// sweep midpoint with its cache-delay table and Section 4 parameters.
func fig3Workload(seed int64) (task.Set, overhead.Params) {
	g := taskgen.New(seed)
	set, err := g.Set("T", 50, 8.0, experiments.Fig3PeriodsUS)
	if err != nil {
		panic(err)
	}
	delays := g.CacheDelays(set, 100)
	return set, experiments.PaperParams(50, delays)
}

// BenchmarkFig3PD2 evaluates the PD² schedulability computation
// (Equation (3) fixed points + quantum rounding + the self-consistent
// processor count) for one task set — the per-set unit of Figure 3.
func BenchmarkFig3PD2(b *testing.B) {
	set, params := fig3Workload(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = overhead.MinProcsPD2(set, params)
	}
}

// BenchmarkFig3EDFFF evaluates the EDF-FF side: decreasing-period
// first-fit with inflation-aware acceptance.
func BenchmarkFig3EDFFF(b *testing.B) {
	set, params := fig3Workload(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = overhead.MinProcsEDFFF(set, params)
	}
}

// BenchmarkFig4Losses evaluates the full loss decomposition (both schemes)
// per task set — the per-set unit of Figure 4.
func BenchmarkFig4Losses(b *testing.B) {
	set, params := fig3Workload(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = overhead.ComputeLosses(set, params)
	}
}

// BenchmarkFig5Supertask runs the Figure 5 scenario (90 slots, both plain
// and reweighted) per iteration.
func BenchmarkFig5Supertask(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig5(90)
		if len(res.Misses) == 0 {
			b.Fatal("Figure 5 miss disappeared")
		}
	}
}

// BenchmarkQuantumSweep evaluates one quantum-size point of the Section 4
// trade-off per iteration.
func BenchmarkQuantumSweep(b *testing.B) {
	cfg := experiments.DefaultQuantumSweepConfig()
	cfg.Sets = 3
	cfg.QuantaUS = []int64{1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.QuantumSweep(cfg)
	}
}

// BenchmarkAblationTieBreaks compares the per-slot cost of the four
// priority rules: EPDF's bare deadline comparison, PD²'s two tie-breaks,
// PD's longer chain, and PF's recursive b-bit comparison.
func BenchmarkAblationTieBreaks(b *testing.B) {
	for _, alg := range []core.Algorithm{core.EPDF, core.PD2, core.PD, core.PF} {
		b.Run(alg.String(), func(b *testing.B) {
			set := fig2Set(200, 4)
			s := core.NewScheduler(4, alg, core.Options{})
			for _, t := range set {
				if err := s.Join(t); err != nil {
					continue
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkAblationAffinity compares migration counts with and without
// the keep-your-processor assignment pass (reported as migrations/slot).
func BenchmarkAblationAffinity(b *testing.B) {
	for _, noAff := range []bool{false, true} {
		name := "affinity"
		if noAff {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			set := fig2Set(50, 4)
			s := core.NewScheduler(4, core.PD2, core.Options{NoAffinity: noAff})
			for _, t := range set {
				if err := s.Join(t); err != nil {
					continue
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.ReportMetric(float64(s.Stats().Migrations)/float64(b.N), "migrations/slot")
		})
	}
}

// BenchmarkAblationQueue compares the binary-heap ready queue (the
// paper's implementation choice) against a linear scan at several queue
// sizes.
func BenchmarkAblationQueue(b *testing.B) {
	for _, size := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("heap/n=%d", size), func(b *testing.B) {
			h := heap.New(func(a, c int64) bool { return a < c })
			for i := 0; i < size; i++ {
				h.Push(int64(i * 7919 % size))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := h.Pop()
				h.Push(v + 1)
			}
		})
		b.Run(fmt.Sprintf("linear/n=%d", size), func(b *testing.B) {
			vals := make([]int64, size)
			for i := range vals {
				vals[i] = int64(i * 7919 % size)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				min := 0
				for j, v := range vals {
					if v < vals[min] {
						min = j
					}
				}
				vals[min] += int64(size)
			}
		})
	}
}

// BenchmarkAblationFixedPoint compares cold-start Equation (3) fixed
// points against warm starts from the previous result, as in a Figure 3
// utilization sweep where consecutive points share task sets.
func BenchmarkAblationFixedPoint(b *testing.B) {
	set, params := fig3Workload(17)
	s := params.SchedPD2(8, len(set))
	b.Run("cold", func(b *testing.B) {
		iters := 0
		for i := 0; i < b.N; i++ {
			for _, t := range set {
				_, it, _ := overhead.InflatePD2(t.Cost, t.Period, params, s, params.CacheDelay(t))
				iters += it
			}
		}
		b.ReportMetric(float64(iters)/float64(b.N*len(set)), "iters/task")
	})
	b.Run("warm", func(b *testing.B) {
		warm := make(map[string]int64, len(set))
		for _, t := range set {
			v, _, _ := overhead.InflatePD2(t.Cost, t.Period, params, s, params.CacheDelay(t))
			warm[t.Name] = v
		}
		iters := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range set {
				_, it, _ := overhead.InflatePD2From(t.Cost, warm[t.Name], t.Period, params, s, params.CacheDelay(t))
				iters += it
			}
		}
		b.ReportMetric(float64(iters)/float64(b.N*len(set)), "iters/task")
	})
}

// BenchmarkSupertaskServe measures the supertask internal-EDF step.
func BenchmarkSupertaskServe(b *testing.B) {
	sys := supertask.NewSystem(2, core.PD2)
	st := &supertask.Supertask{Name: "S", Components: task.Set{
		task.MustNew("a", 1, 5), task.MustNew("b", 1, 10), task.MustNew("c", 1, 20),
	}}
	req, err := supertask.JoinRequest(st, true)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Submit(req); err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Submit(admission.Join(task.MustNew("w", 1, 2))); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.Run(int64(b.N))
}

// BenchmarkWRR measures the weighted-round-robin baseline's per-slot cost
// for comparison with the Pfair schedulers.
func BenchmarkWRR(b *testing.B) {
	set := fig2Set(200, 4)
	s, err := wrr.NewScheduler(4, set)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkMPCPAnalysis measures one full MPCP response-time analysis of a
// 24-task, 4-resource system.
func BenchmarkMPCPAnalysis(b *testing.B) {
	g := taskgen.New(31)
	set, err := g.SetCapped("T", 24, 6, 0.8, experiments.Fig3PeriodsUS)
	if err != nil {
		b.Fatal(err)
	}
	sys := &mpcp.System{}
	for i, t := range set {
		sys.Tasks = append(sys.Tasks, mpcp.TaskSpec{
			Task: t, Proc: i % 8,
			Sections: []mpcp.CS{{Resource: fmt.Sprintf("R%d", i%4), Length: 50}},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.ResponseTimes(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWFQ measures packet scheduling including the GPS reference
// computation (64 packets over 8 flows per iteration).
func BenchmarkWFQ(b *testing.B) {
	for _, pol := range []wfq.Policy{wfq.WFQ, wfq.WF2Q} {
		b.Run(pol.String(), func(b *testing.B) {
			flows := make([]wfq.Flow, 8)
			for i := range flows {
				flows[i] = wfq.Flow{Name: fmt.Sprintf("f%d", i), Weight: int64(1 + i%4)}
			}
			var packets []wfq.Packet
			for i := 0; i < 64; i++ {
				packets = append(packets, wfq.Packet{
					Flow: flows[i%8].Name, Arrival: int64(i / 4), Length: int64(1 + i%5),
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wfq.Schedule(flows, packets, pol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResponseExperiment evaluates one load level of the Section 2
// response-time comparison.
func BenchmarkResponseExperiment(b *testing.B) {
	cfg := experiments.ResponseConfig{M: 4, N: 16, Loads: []float64{0.4}, Sets: 2, Horizon: 1000, Seed: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.ResponseTimes(cfg)
	}
}

// BenchmarkSyncExperiment evaluates one critical-section length of the
// Section 5.1 comparison.
func BenchmarkSyncExperiment(b *testing.B) {
	cfg := experiments.SyncConfig{N: 16, TotalUtil: 4, Resources: 4, Sets: 2, CSLengths: []int64{100}, QuantumUS: 1000, Seed: 9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.SyncComparison(cfg)
	}
}
