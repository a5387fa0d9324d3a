package overhead

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pfair/internal/partition"
	"pfair/internal/rational"
	"pfair/internal/task"
	"pfair/internal/taskgen"
)

// paperParams mirrors the Section 4 experimental constants with a flat
// (m-independent) PD² scheduling cost for unit tests.
func paperParams(d int64) Params {
	return Params{
		Quantum:       1000,
		ContextSwitch: 5,
		SchedEDF:      1,
		SchedPD2:      func(m, n int) int64 { return 3 },
		CacheDelay:    func(*task.Task) int64 { return d },
	}
}

func TestInflateEDF(t *testing.T) {
	p := paperParams(33)
	// e' = e + 2(S+C) + maxD = 100 + 2*6 + 40 = 152.
	if got := InflateEDF(100, p, 40); got != 152 {
		t.Errorf("InflateEDF = %d, want 152", got)
	}
	// No preemptable tasks on the processor: maxD = 0.
	if got := InflateEDF(100, p, 0); got != 112 {
		t.Errorf("InflateEDF = %d, want 112", got)
	}
}

func TestInflatePD2HandWorked(t *testing.T) {
	p := paperParams(0)
	// Task e=1500 µs, p=10000 µs (10 quanta), S=3, C=5, D=20.
	// Iter 1 from e'=1500: E=2, preempts=min(1, 8)=1,
	//   e' = 1500 + 2*3 + 5 + 1*(5+20) = 1536. E stays 2 → converged.
	got, iters, ok := InflatePD2(1500, 10000, p, 3, 20)
	if !ok {
		t.Fatal("inflation rejected")
	}
	if got != 1536 {
		t.Errorf("InflatePD2 = %d, want 1536", got)
	}
	if iters < 2 {
		t.Errorf("iters = %d, want at least 2 (initial + confirm)", iters)
	}
}

func TestInflatePD2CrossesQuantum(t *testing.T) {
	p := paperParams(0)
	// e=995 in 2-quantum period: E=1 initially, overhead pushes e' past
	// one quantum, raising E to 2 and the preemption term with it.
	got, _, ok := InflatePD2(995, 2000, p, 3, 50)
	if !ok {
		t.Fatal("rejected")
	}
	// Round 1: E=1, preempts=min(0,1)=0 → e'=995+3+5=1003.
	// Round 2: E=2, preempts=min(1,0)=0 → e'=995+6+5=1006. Stable.
	if got != 1006 {
		t.Errorf("InflatePD2 = %d, want 1006", got)
	}
}

func TestInflatePD2Infeasible(t *testing.T) {
	p := paperParams(0)
	// A full-weight task cannot absorb any overhead.
	if _, _, ok := InflatePD2(1000, 1000, p, 3, 10); ok {
		t.Error("weight-1 task accepted despite overhead")
	}
}

func TestInflatePD2PanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for period not a multiple of the quantum")
		}
	}()
	InflatePD2(100, 1500, paperParams(0), 3, 0)
}

func TestPD2Weight(t *testing.T) {
	// 1536 µs in 1 ms quanta = 2 quanta per 10 slots → 1/5.
	if got := PD2Weight(1536, 10000, 1000); got.Cmp(rational.New(1, 5)) != 0 {
		t.Errorf("PD2Weight = %v, want 1/5", got)
	}
}

// TestInflationConvergence reproduces the Section 4 observation: over
// random task sets the fixed point converges within a handful of
// iterations (the paper says "usually within five").
func TestInflationConvergence(t *testing.T) {
	g := taskgen.New(99)
	p := paperParams(0)
	worst := 0
	for trial := 0; trial < 50; trial++ {
		set, err := g.Set("T", 50, 5.0, taskgen.DefaultPeriodsUS)
		if err != nil {
			t.Fatal(err)
		}
		delays := g.CacheDelays(set, 100)
		for _, tk := range set {
			_, iters, ok := InflatePD2(tk.Cost, tk.Period, p, 3, delays[tk.Name])
			if !ok {
				continue
			}
			if iters > worst {
				worst = iters
			}
		}
	}
	if worst > 8 {
		t.Errorf("worst-case fixed-point iterations = %d, expected a handful", worst)
	}
	if worst == 0 {
		t.Error("no inflation was exercised")
	}
}

// TestQuickInflationIsSound: the returned e′ always covers the right-hand
// side of Equation (3) evaluated at e′ — the soundness condition even when
// the recurrence oscillated.
func TestQuickInflationIsSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := paperParams(0)
		pq := int64(2 + r.Intn(1000))
		per := pq * p.Quantum
		e := 1 + r.Int63n(per)
		sPD2 := int64(r.Intn(20))
		d := int64(r.Intn(150))
		got, _, ok := InflatePD2(e, per, p, sPD2, d)
		if !ok {
			return true
		}
		eq := rational.CeilDiv(got, p.Quantum)
		preempts := eq - 1
		if pq-eq < preempts {
			preempts = pq - eq
		}
		rhs := e + eq*sPD2 + p.ContextSwitch + preempts*(p.ContextSwitch+d)
		if got < rhs {
			t.Logf("e=%d per=%d s=%d d=%d: e'=%d < rhs=%d", e, per, sPD2, d, got, rhs)
			return false
		}
		return got >= e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinProcsPD2Smoke(t *testing.T) {
	g := taskgen.New(7)
	set, err := g.Set("T", 50, 5.0, taskgen.DefaultPeriodsUS)
	if err != nil {
		t.Fatal(err)
	}
	delays := g.CacheDelays(set, 100)
	p := Params{
		Quantum:       1000,
		ContextSwitch: 5,
		SchedEDF:      1,
		SchedPD2:      func(m, n int) int64 { return int64(2 + m/4) },
		CacheDelay:    func(t *task.Task) int64 { return delays[t.Name] },
	}
	res := MinProcsPD2(set, p)
	if res.Processors < set.MinProcessors() {
		t.Errorf("PD² with overheads needs %d < overhead-free bound %d", res.Processors, set.MinProcessors())
	}
	if res.Processors > 3*set.MinProcessors()+2 {
		t.Errorf("PD² needs implausibly many processors: %d (base %d)", res.Processors, set.MinProcessors())
	}
	if res.InflatedUtil <= res.BaseUtil {
		t.Error("inflation did not increase utilization")
	}
	if res.Iterations < 1 {
		t.Error("no iterations recorded")
	}
}

func TestMinProcsEDFFFSmoke(t *testing.T) {
	g := taskgen.New(8)
	set, err := g.Set("T", 50, 5.0, taskgen.DefaultPeriodsUS)
	if err != nil {
		t.Fatal(err)
	}
	delays := g.CacheDelays(set, 100)
	p := paperParams(0)
	p.CacheDelay = func(t *task.Task) int64 { return delays[t.Name] }
	res := MinProcsEDFFF(set, p)
	if res.Processors < set.MinProcessors() {
		t.Errorf("EDF-FF needs %d < lower bound %d", res.Processors, set.MinProcessors())
	}
	if res.InflatedUtil <= res.BaseUtil {
		t.Error("inflation did not increase utilization")
	}
}

// TestLowUtilizationBothNearIdeal: when per-task utilizations are tiny,
// both schemes need close to the ideal processor count — the left edge of
// Figure 3 where the curves coincide.
func TestLowUtilizationBothNearIdeal(t *testing.T) {
	g := taskgen.New(9)
	set, err := g.Set("T", 50, 1.8, taskgen.DefaultPeriodsUS) // mean util 0.036
	if err != nil {
		t.Fatal(err)
	}
	delays := g.CacheDelays(set, 100)
	p := paperParams(0)
	p.CacheDelay = func(t *task.Task) int64 { return delays[t.Name] }
	pd2 := MinProcsPD2(set, p)
	ff := MinProcsEDFFF(set, p)
	if pd2.Processors > 4 || ff.Processors > 4 {
		t.Errorf("low-utilization set needs pd2=%d ff=%d processors; both should be near 2",
			pd2.Processors, ff.Processors)
	}
}

// TestComputeLossesDecomposition: losses are non-negative and the EDF-FF
// split adds up: inflated util + stranded capacity = platform.
func TestComputeLossesDecomposition(t *testing.T) {
	g := taskgen.New(10)
	set, err := g.Set("T", 50, 8.0, taskgen.DefaultPeriodsUS)
	if err != nil {
		t.Fatal(err)
	}
	delays := g.CacheDelays(set, 100)
	p := paperParams(0)
	p.CacheDelay = func(t *task.Task) int64 { return delays[t.Name] }
	l, pd2, ff := ComputeLosses(set, p)
	if pd2.Processors <= 0 || ff.Processors <= 0 {
		t.Fatalf("unschedulable: %+v %+v", pd2, ff)
	}
	if l.Pfair < 0 || l.EDF < 0 || l.FF < 0 {
		t.Errorf("negative loss: %+v", l)
	}
	sum := (ff.InflatedUtil-ff.BaseUtil)/float64(ff.Processors) +
		(float64(ff.Processors)-ff.InflatedUtil)/float64(ff.Processors)
	if got := l.EDF + l.FF; got < sum-1e-9 || got > sum+1e-9 {
		t.Errorf("loss split does not decompose: %v vs %v", got, sum)
	}
}

// TestComputeLossesAllocations pins ComputeLosses on a Figure 3 top-step
// set at N=500 to no allocation: the cache delays, the period order and
// EDF-FF's processors all fit its stack buffers, and the Figure 3
// periods keep every exact sum on the int64 path.
func TestComputeLossesAllocations(t *testing.T) {
	g := taskgen.New(11)
	set, err := g.SetCapped("T", 500, 500.0/3, 0.9, []int64{50000, 100000, 200000, 250000, 500000, 1000000})
	if err != nil {
		t.Fatal(err)
	}
	delays := g.CacheDelays(set, 100)
	p := paperParams(0)
	p.CacheDelay = func(t *task.Task) int64 { return delays[t.Name] }
	if allocs := testing.AllocsPerRun(20, func() { ComputeLosses(set, p) }); allocs != 0 {
		t.Errorf("ComputeLosses on 500 tasks allocates %v times per call, want 0", allocs)
	}
}

func TestParamsValidate(t *testing.T) {
	good := paperParams(0)
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := good
	bad.Quantum = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero quantum accepted")
	}
	bad = good
	bad.SchedPD2 = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil SchedPD2 accepted")
	}
	bad = good
	bad.ContextSwitch = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative cost accepted")
	}
}

// TestMinProcsPD2Infeasible: a task whose inflated weight exceeds one at
// this quantum makes the whole computation report -1.
func TestMinProcsPD2Infeasible(t *testing.T) {
	set := task.Set{task.MustNew("hog", 996, 1000)} // inflation pushes past the 1-quantum period
	p := paperParams(50)
	res := MinProcsPD2(set, p)
	if res.Processors != -1 {
		t.Errorf("Processors = %d, want -1 (inflation exceeds the period)", res.Processors)
	}
}

// TestMinProcsEDFFFInfeasible: EDF inflation can also exceed a period.
func TestMinProcsEDFFFInfeasible(t *testing.T) {
	set := task.Set{task.MustNew("hog", 995, 1000)}
	p := paperParams(0) // e' = 995 + 2(1+5) = 1007 > 1000
	res := MinProcsEDFFF(set, p)
	if res.Processors != -1 {
		t.Errorf("Processors = %d, want -1", res.Processors)
	}
}

// TestMinProcsPD2ValidatePanics covers the parameter guard.
func TestMinProcsPD2ValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid params")
		}
	}()
	MinProcsPD2(task.Set{task.MustNew("a", 1, 1000)}, Params{})
}

// TestMinProcsEDFFFValidatePanics covers the parameter guard.
func TestMinProcsEDFFFValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid params")
		}
	}()
	MinProcsEDFFF(task.Set{task.MustNew("a", 1, 1000)}, Params{})
}

// TestMinProcsPD2GrowingS: a scheduling-cost model that grows with m makes
// the self-consistency loop iterate upward and still converge.
func TestMinProcsPD2GrowingS(t *testing.T) {
	g := taskgen.New(21)
	set, err := g.SetCapped("T", 60, 20, 0.8, []int64{50000, 100000, 500000})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		Quantum:       1000,
		ContextSwitch: 5,
		SchedEDF:      1,
		SchedPD2:      func(m, n int) int64 { return int64(2 + m) },
		CacheDelay:    func(*task.Task) int64 { return 30 },
	}
	res := MinProcsPD2(set, p)
	if res.Processors < 20 {
		t.Errorf("Processors = %d, want ≥ the overhead-free bound 20", res.Processors)
	}
	// Self-consistency: recomputing at the returned count agrees.
	s := p.SchedPD2(res.Processors, len(set))
	if s <= 2 {
		t.Fatal("model not exercised")
	}
}

// referenceEDFFF is the direct reading of Section 4's EDF-FF analysis,
// kept as the oracle for MinProcsEDFFF: first fit through partition.Pack
// with an acceptance test that re-inflates every task of the processor,
// O(k²) per probe, then a final pass summing the inflated utilization of
// the finished assignment. It also returns that exact sum.
func referenceEDFFF(set task.Set, p Params) (Result, *rational.Acc) {
	res := Result{BaseUtil: set.TotalUtilization()}
	maxDOf := func(t *task.Task, proc task.Set) int64 {
		maxD := int64(0)
		for _, u := range proc {
			if u.Period > t.Period {
				maxD = max(maxD, p.CacheDelay(u))
			}
		}
		return maxD
	}
	accept := func(assigned task.Set, cand *task.Task) bool {
		total := rational.NewAcc()
		all := append(assigned.Clone(), cand)
		for _, t := range all {
			infl := InflateEDF(t.Cost, p, maxDOf(t, all))
			if infl > t.Period {
				return false
			}
			total.Add(rational.New(infl, t.Period))
		}
		return total.CmpInt(1) <= 0
	}
	a := partition.Pack(set.SortByPeriodDecreasing(), 0, partition.FirstFit, accept)
	if !a.OK() {
		return Result{Processors: -1, BaseUtil: res.BaseUtil}, nil
	}
	res.Processors = a.NumUsed()
	util := rational.NewAcc()
	for _, proc := range a.Processors {
		for _, t := range proc {
			util.Add(rational.New(InflateEDF(t.Cost, p, maxDOf(t, proc)), t.Period))
		}
	}
	res.InflatedUtil = util.Float()
	return res, util
}

// refKind is one kind of random set the reference comparisons draw.
type refKind struct {
	name  string
	menu  []int64
	n     func(r *rand.Rand) int
	hog   bool // add a task that fits no processor
	spill bool // the exact sums should overflow int64
}

// refSet draws one set of kind k, at a total utilization between n/30
// and n/3 as in Figure 3, with its cache delays and paperParams whose
// S_EDF is drawn from [1, 3].
func refSet(t *testing.T, r *rand.Rand, k refKind) (task.Set, Params) {
	t.Helper()
	g := taskgen.New(r.Int63())
	n := k.n(r)
	target := float64(n) * (1.0/30 + r.Float64()*(1.0/3-1.0/30))
	set, err := g.SetCapped("T", n, target, 0.9, k.menu)
	if err != nil {
		t.Fatal(err)
	}
	if k.hog {
		per := k.menu[r.Intn(len(k.menu))]
		hog := task.MustNew("hog", per-int64(r.Intn(12)), per) // inflation adds ≥ 12
		at := r.Intn(len(set) + 1)
		set = append(set[:at], append(task.Set{hog}, set[at:]...)...)
	}
	delays := g.CacheDelays(set, 100)
	p := paperParams(0)
	p.SchedEDF = 1 + r.Int63n(3)
	p.CacheDelay = func(t *task.Task) int64 { return delays[t.Name] }
	return set, p
}

var (
	fig3Menu = []int64{50000, 100000, 200000, 250000, 500000, 1000000}
	primes   = []int64{99991, 99989, 99971, 99961, 99929, 99923, 99907, 99901, 99881, 99877, 99871, 99859}
)

// TestMinProcsEDFFFMatchesReference checks the O(1)-per-probe EDF-FF
// against referenceEDFFF on random sets of four kinds: the Figure 3/4
// period menu; co-prime periods, whose exact sums outgrow int64 so
// rational.Acc spills to math/big; many tasks sharing two periods, so
// equal-period ties decide maxD; and sets with a task whose inflated
// cost exceeds its period on any processor. Processor counts must match
// and InflatedUtil must match bit for bit.
func TestMinProcsEDFFFMatchesReference(t *testing.T) {
	kinds := []refKind{
		{name: "fig3-menu", menu: fig3Menu, n: func(r *rand.Rand) int { return 5 + r.Intn(120) }},
		{name: "coprime", menu: primes, n: func(r *rand.Rand) int { return 20 + r.Intn(60) }, spill: true},
		{name: "shared-period", menu: []int64{100000, 200000}, n: func(r *rand.Rand) int { return 50 + r.Intn(150) }},
		{name: "unplaceable", menu: fig3Menu, n: func(r *rand.Rand) int { return 5 + r.Intn(60) }, hog: true},
	}
	for ki, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(ki + 1)))
			spilled := 0
			const sets = 150
			for i := 0; i < sets; i++ {
				set, p := refSet(t, r, k)
				got := MinProcsEDFFF(set, p)
				want, util := referenceEDFFF(set, p)
				if !sameResult(got, want) {
					t.Fatalf("set %d (n=%d): got %+v, reference %+v", i, len(set), got, want)
				}
				if k.hog && got.Processors != -1 {
					t.Fatalf("set %d: a task with cost near its period was placed: %+v", i, got)
				}
				if util != nil {
					if _, fits := util.Rat(); !fits {
						spilled++
					}
				}
			}
			if k.spill && spilled < sets/2 {
				t.Errorf("only %d of %d co-prime sets overflowed int64; the big path is untested", spilled, sets)
			}
		})
	}
}

// referenceMinProcsPD2 is MinProcsPD2 without its shortcuts: each
// quantum-rounded weight reduced to lowest terms (PD2Weight) and added to
// a fresh rational.Acc every round, the starting bound from
// set.TotalWeight, and each task's cache delay read in every round. It is
// the oracle for MinProcsPD2.
func referenceMinProcsPD2(set task.Set, p Params) Result {
	if err := p.Validate(); err != nil {
		//pfair:allowpanic experiment parameters are static tables; Validate failures are programmer errors
		panic(err)
	}
	res := Result{BaseUtil: set.TotalUtilization()}
	m := int(set.TotalWeight().Ceil())
	if m < 1 {
		m = 1
	}
	for round := 0; round < 32; round++ {
		s := p.SchedPD2(m, len(set))
		total := rational.NewAcc()
		maxIters := 0
		for _, t := range set {
			infl, iters, ok := InflatePD2(t.Cost, t.Period, p, s, p.CacheDelay(t))
			if iters > maxIters {
				maxIters = iters
			}
			if !ok {
				return Result{Processors: -1, BaseUtil: res.BaseUtil, Iterations: iters}
			}
			total.Add(PD2Weight(infl, t.Period, p.Quantum))
		}
		need := int(total.Ceil())
		if need < 1 {
			need = 1
		}
		res.Iterations = maxIters
		res.InflatedUtil = total.Float()
		if need == m {
			res.Processors = m
			return res
		}
		if need < m {
			// Overheads only grow with m, so a smaller need at larger m
			// is self-consistent already; keep the smaller answer and
			// re-verify.
			m = need
			continue
		}
		m = need
	}
	res.Processors = m
	return res
}

// sameResult reports whether two Results agree in every field, the
// floats bit for bit.
func sameResult(a, b Result) bool {
	return a.Processors == b.Processors && a.Iterations == b.Iterations &&
		math.Float64bits(a.BaseUtil) == math.Float64bits(b.BaseUtil) &&
		math.Float64bits(a.InflatedUtil) == math.Float64bits(b.InflatedUtil)
}

// TestMinProcsPD2MatchesReference checks MinProcsPD2 against
// referenceMinProcsPD2 on the four kinds of
// TestMinProcsEDFFFMatchesReference, with an S_PD² that grows with the
// processor count so the fixed point over m takes several rounds. PD²
// needs periods that are multiples of the quantum, so the co-prime kind
// uses 1000·p for the primes p; its p/q and its periods both have lcms
// far past int64. Every Result field must match, InflatedUtil bit for
// bit.
func TestMinProcsPD2MatchesReference(t *testing.T) {
	coprime := make([]int64, len(primes))
	for i, p := range primes {
		coprime[i] = 1000 * p
	}
	kinds := []refKind{
		{name: "fig3-menu", menu: fig3Menu, n: func(r *rand.Rand) int { return 5 + r.Intn(500) }},
		{name: "coprime", menu: coprime, n: func(r *rand.Rand) int { return 20 + r.Intn(60) }, spill: true},
		{name: "shared-period", menu: []int64{100000, 200000}, n: func(r *rand.Rand) int { return 50 + r.Intn(150) }},
		{name: "unplaceable", menu: fig3Menu, n: func(r *rand.Rand) int { return 5 + r.Intn(60) }, hog: true},
	}
	for ki, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(ki + 1)))
			spilled, infeasible, multiRound := 0, 0, 0
			const sets = 150
			for i := 0; i < sets; i++ {
				set, p := refSet(t, r, k)
				perProc := int64(r.Intn(3))
				p.SchedPD2 = func(m, n int) int64 { return 2 + int64(6*n)/1000 + perProc*int64(m-1) }
				got, want := MinProcsPD2(set, p), referenceMinProcsPD2(set, p)
				if !sameResult(got, want) {
					t.Fatalf("set %d (n=%d): got %+v, reference %+v", i, len(set), got, want)
				}
				if got.Processors < 0 {
					infeasible++
				} else if int64(got.Processors) > set.TotalWeight().Ceil() {
					multiRound++
				}
				if _, fits := set.TotalWeight().Rat(); !fits {
					spilled++
				}
			}
			if k.spill && spilled < sets/2 {
				t.Errorf("only %d of %d co-prime sets overflowed int64; the big path is untested", spilled, sets)
			}
			if k.hog && infeasible != sets {
				t.Errorf("%d of %d sets with a hog were feasible", sets-infeasible, sets)
			}
			if !k.hog && multiRound == 0 {
				t.Error("no set needed more than its overhead-free bound; the fixed point over m is untested")
			}
		})
	}
}

// TestFFTreeFirstMatchesScan holds ffTree.first to a linear scan for
// every start index and a range of thresholds, while bins open and
// their spare capacities fall, over one common denominator and, once
// co-prime periods spill it, in math/big.
func TestFFTreeFirstMatchesScan(t *testing.T) {
	for _, menu := range [][]int64{fig3Menu, primes} {
		r := rand.New(rand.NewSource(7))
		var one rational.Acc
		for _, per := range menu {
			one.Over(per)
		}
		one.SetInt(1)
		var tree ffTree
		for step := 0; step < 300; step++ {
			if len(tree.bins) == 0 || r.Intn(4) == 0 {
				tree.bins = append(tree.bins, ffBin{})
				tree.bins[len(tree.bins)-1].spare.Set(&one)
				tree.opened()
			} else {
				i := r.Intn(len(tree.bins))
				per := menu[r.Intn(len(menu))]
				if tree.bins[i].spare.CmpFrac(per/8, per) >= 0 {
					tree.bins[i].spare.SubFrac(1+r.Int63n(per/8), per)
					tree.lowered(i)
				}
			}
			for q := 0; q < 8; q++ {
				var u rational.Acc
				u.Set(&one).SetInt(0).AddFrac(r.Int63n(menu[0]+1), menu[0])
				for lo := 0; lo <= len(tree.bins); lo++ {
					want := -1
					for i := lo; i < len(tree.bins); i++ {
						if tree.bins[i].spare.CmpAcc(&u) >= 0 {
							want = i
							break
						}
					}
					if got := tree.first(lo, &u); got != want {
						t.Fatalf("step %d, %d bins: first(%d, %v) = %d, scan %d", step, len(tree.bins), lo, u.Float(), got, want)
					}
				}
			}
		}
	}
}
