// Package overhead implements Section 4 of the paper: accounting for
// scheduling, context-switching, and cache-related preemption costs by
// inflating task execution requirements (Equation (3)), and the resulting
// schedulability machinery that Figures 3 and 4 are computed from.
//
// All times are in microseconds. For a task with base cost e and period p,
// quantum size q, per-invocation scheduling cost S, context-switch cost C,
// and cache-related preemption delay D(T):
//
//	EDF:  e′ = e + 2(S_EDF + C) + max_{U ∈ P_T} D(U)
//	PD²:  e′ = e + ⌈e′/q⌉·S_PD² + C + min(⌈e′/q⌉ − 1, p/q − ⌈e′/q⌉)·(C + D(T))
//
// where P_T is the set of tasks on T's processor with periods larger than
// T's. The PD² equation has e′ on both sides because the number of
// preemptions a job suffers varies with its (inflated) cost; it is solved
// by fixed-point iteration from e′ = e, which the paper observes converges
// within about five iterations.
package overhead

import (
	"fmt"

	"pfair/internal/rational"
	"pfair/internal/task"
)

// Params carries the system-overhead constants of the Section 4
// experiments.
type Params struct {
	// Quantum is the PD² allocation quantum q in µs (the paper uses
	// 1000 µs = 1 ms).
	Quantum int64
	// ContextSwitch is C in µs (the paper fixes 5 µs, citing a 1–10 µs
	// range for then-modern processors).
	ContextSwitch int64
	// SchedEDF is S_EDF, the per-invocation cost of the EDF scheduler.
	SchedEDF int64
	// SchedPD2 returns S_PD², the per-invocation (per-slot) cost of the
	// PD² scheduler, which grows with the processor and task counts
	// (Figure 2(b)); the experiment harness feeds it measured values.
	SchedPD2 func(m, n int) int64
	// CacheDelay returns D(T), the cache-related preemption delay of a
	// task (the experiments draw it uniformly from [0, 100] µs).
	CacheDelay func(t *task.Task) int64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Quantum <= 0 {
		return fmt.Errorf("overhead: quantum %d must be positive", p.Quantum)
	}
	if p.ContextSwitch < 0 || p.SchedEDF < 0 {
		return fmt.Errorf("overhead: negative cost")
	}
	if p.SchedPD2 == nil || p.CacheDelay == nil {
		return fmt.Errorf("overhead: SchedPD2 and CacheDelay are required")
	}
	return nil
}

// InflateEDF returns the inflated cost of a task under EDF given the
// largest cache delay among the same-processor tasks it can preempt.
func InflateEDF(e int64, p Params, maxD int64) int64 {
	return e + 2*(p.SchedEDF+p.ContextSwitch) + maxD
}

// InflatePD2 solves the PD² branch of Equation (3) for a task with base
// cost e and period per (per must be a multiple of the quantum, as the
// paper assumes). It returns the inflated cost, the number of fixed-point
// iterations used, and ok=false if the inflation drives the task's weight
// above one (the task cannot be scheduled at this quantum size).
func InflatePD2(e, per int64, p Params, sPD2, d int64) (inflated int64, iters int, ok bool) {
	return InflatePD2From(e, e, per, p, sPD2, d)
}

// InflatePD2From solves the same fixed point starting the iteration from
// an explicit initial value (clamped to at least e). Warm-starting from a
// previous sweep's result cuts the iteration count — the ablation
// benchmark quantifies by how much.
func InflatePD2From(e, start, per int64, p Params, sPD2, d int64) (inflated int64, iters int, ok bool) {
	if per%p.Quantum != 0 {
		//pfair:allowpanic caller contract: Params.Validate aligns periods before any sweep
		panic(fmt.Sprintf("overhead: period %d not a multiple of quantum %d", per, p.Quantum))
	}
	pq := per / p.Quantum
	cur := start
	if cur < e {
		cur = e
	}
	for iters = 1; iters <= 64; iters++ {
		eq := rational.CeilDiv(cur, p.Quantum)
		if eq > pq {
			return 0, iters, false
		}
		preempts := eq - 1
		if pq-eq < preempts {
			preempts = pq - eq
		}
		next := e + eq*sPD2 + p.ContextSwitch + preempts*(p.ContextSwitch+d)
		if next == cur {
			return cur, iters, true
		}
		if next < cur {
			// The recurrence is not monotone (the min(E−1, P−E) term
			// shrinks as E grows), so it can oscillate. cur ≥ rhs(cur)
			// means cur already covers all overheads — a sound, slightly
			// conservative inflation.
			return cur, iters, true
		}
		cur = next
	}
	// The sequence increased 64 times without converging; with costs
	// bounded by the weight-1 rejection this is unreachable, but be
	// defensive.
	return 0, iters, false
}

// PD2Weight returns the quantum-rounded weight of an inflated task:
// ⌈e′/q⌉ quanta per p/q slots. The rounding-up of execution costs to whole
// quanta is itself a schedulability loss the paper discusses.
func PD2Weight(inflated, per int64, q int64) rational.Rat {
	return rational.New(rational.CeilDiv(inflated, q), per/q)
}

// Result summarizes a schedulability computation for one task set.
type Result struct {
	// Processors is the minimum processor count that renders the set
	// schedulable, or −1 if no finite count does (some task's inflated
	// weight exceeds one).
	Processors int
	// BaseUtil is Σ e/p before inflation.
	BaseUtil float64
	// InflatedUtil is the total utilization (EDF) or weight (PD²,
	// quantum-rounded) after inflation at the returned processor count.
	InflatedUtil float64
	// Iterations is the maximum fixed-point iteration count among the
	// tasks (PD² only).
	Iterations int
}

// MinProcsPD2 computes the minimum number of processors PD² needs for the
// set once Equation (3) inflation and quantum rounding are applied. Since
// S_PD² itself grows with the processor count, the computation iterates:
// start from the overhead-free bound and recompute until the count is
// self-consistent.
//
// Both exact sums run over one common denominator (rational.Acc): the
// lcm of the periods for the starting bound ⌈Σ e/p⌉, and the lcm of the
// p/q for the quantum-rounded weights, which the first round computes and
// every later round keeps. Each task's cache delay is read once.
func MinProcsPD2(set task.Set, p Params) Result {
	if err := p.Validate(); err != nil {
		//pfair:allowpanic experiment parameters are static tables; Validate failures are programmer errors
		panic(err)
	}
	res := Result{BaseUtil: set.TotalUtilization()}
	// The paper's task sets have at most 1000 tasks; their delays stay on
	// the stack, and append moves a larger set's to the heap.
	var dbuf [1024]int64
	delays := dbuf[:0]
	var base rational.Acc
	for _, t := range set {
		delays = append(delays, p.CacheDelay(t))
		base.AddFrac(t.Cost, t.Period)
	}
	m := max(int(base.Ceil()), 1)
	var total rational.Acc
	for round := 0; round < 32; round++ {
		s := p.SchedPD2(m, len(set))
		total.SetInt(0)
		maxIters := 0
		for i, t := range set {
			infl, iters, ok := InflatePD2(t.Cost, t.Period, p, s, delays[i])
			if iters > maxIters {
				maxIters = iters
			}
			if !ok {
				return Result{Processors: -1, BaseUtil: res.BaseUtil, Iterations: iters}
			}
			total.AddFrac(rational.CeilDiv(infl, p.Quantum), t.Period/p.Quantum)
		}
		need := max(int(total.Ceil()), 1)
		res.Iterations = maxIters
		res.InflatedUtil = total.Float()
		if need == m {
			res.Processors = m
			return res
		}
		// Overheads only grow with m, so a smaller need at larger m is
		// self-consistent already; either way, re-verify at need.
		m = need
	}
	res.Processors = m
	return res
}

// MinProcsEDFFF computes the minimum number of processors EDF-FF needs
// with inflation applied. Tasks are considered in decreasing-period order
// so that when a task is placed, the tasks it can preempt (same processor,
// larger period) — whose cache delays determine its inflation — are
// already known (Section 4).
//
// The same order makes acceptance O(1) per probe. A candidate's period is
// never larger than that of a task already on a processor, so placing it
// never changes those tasks' inflation: a processor needs only its exact
// spare capacity and the cache delays that can bound a later task's
// maxD (ffBin). Each task's inflated utilization is fixed once placed,
// so the reported total is summed during placement.
//
// Every spare capacity, and each candidate's utilization at maxD = 0,
// is held over one common denominator, the lcm of the periods
// (rational.Acc), so a probe is one integer compare and no utilization
// is reduced by a gcd.
//
// First fit runs in O(log M) per task: a tournament tree over the spare
// capacities (ffTree) finds the first processor whose spare capacity is
// at least the candidate's utilization at maxD = 0. A processor with
// less cannot take it, so the tree skips only processors a linear scan
// would reject. If maxD makes the task too large on the one found, the
// search resumes at the next processor, so the task lands where the
// linear scan would put it.
func MinProcsEDFFF(set task.Set, p Params) Result {
	if err := p.Validate(); err != nil {
		//pfair:allowpanic experiment parameters are static tables; Validate failures are programmer errors
		panic(err)
	}
	res := Result{BaseUtil: set.TotalUtilization()}
	var one rational.Acc // 1 over the lcm of the periods
	for _, t := range set {
		one.Over(t.Period)
	}
	one.SetInt(1)
	// The paper's task sets need at most a few hundred processors; the
	// tree's nodes stay on the stack up to 256.
	var nbuf [512]int32
	tree := ffTree{node: nbuf[:0]}
	var util, u0 rational.Acc
	u0.Set(&one) // over one's denominator, so a probe compares numerators
	for _, t := range set.SortByPeriodDecreasing() {
		u0.SetInt(0).AddFrac(InflateEDF(t.Cost, p, 0), t.Period)
		i, e, ok := -1, int64(0), false
		for !ok {
			if i = tree.first(i+1, &u0); i < 0 {
				break
			}
			e, ok = tree.bins[i].fits(t, p, &u0)
		}
		if !ok {
			// Open a processor; a task that does not fit even an empty
			// one fits no count. The append is made here, not in an
			// ffTree method, so that nbuf stays on the stack.
			i = len(tree.bins)
			tree.bins = append(tree.bins, ffBin{})
			tree.bins[i].spare.Set(&one)
			tree.opened()
			if e, ok = tree.bins[i].fits(t, p, &u0); !ok {
				return Result{Processors: -1, BaseUtil: res.BaseUtil}
			}
		}
		tree.bins[i].place(t.Period, p.CacheDelay(t), e)
		tree.lowered(i)
		util.AddFrac(e, t.Period)
	}
	res.Processors = len(tree.bins)
	res.InflatedUtil = util.Float()
	return res
}

// ffBin is one EDF-FF processor's acceptance state. Tasks arrive in
// decreasing-period order, so last is the smallest period on the
// processor, and a candidate's maxD is the largest cache delay among the
// tasks with a strictly larger period: dAbove when its period equals
// last, max(dAbove, dAt) when it is smaller.
type ffBin struct {
	spare  rational.Acc // 1 − Σ inflated utilization, exact
	dAbove int64        // max D among tasks with period > last
	dAt    int64        // max D among tasks with period == last
	last   int64        // period of the most recently placed task
}

// maxD returns the largest cache delay among the processor's tasks with
// a period above per, for a candidate of period per ≤ last.
func (b *ffBin) maxD(per int64) int64 {
	if per < b.last {
		return max(b.dAbove, b.dAt)
	}
	return b.dAbove
}

// fits reports whether t fits in b's spare capacity and returns its
// inflated cost on b. The spare capacity never exceeds one, so this also
// rules out an inflated cost above the period.
//
// u0 is t's inflated utilization at maxD = 0. maxD is never negative, so
// u0 bounds the inflated utilization from below, and a processor with
// less spare capacity is rejected by one compare over the common
// denominator, before the inflation is computed. ffTree.first skips
// such processors already; fits checks again so that it stands alone.
func (b *ffBin) fits(t *task.Task, p Params, u0 *rational.Acc) (int64, bool) {
	if b.spare.CmpAcc(u0) < 0 {
		return 0, false
	}
	e := InflateEDF(t.Cost, p, b.maxD(t.Period))
	return e, b.spare.CmpFrac(e, t.Period) >= 0
}

// place records a task of period per and cache delay d accepted with
// inflated cost e.
func (b *ffBin) place(per, d, e int64) {
	if per < b.last {
		b.dAbove = max(b.dAbove, b.dAt)
		b.dAt = 0
	}
	b.last = per
	b.dAt = max(b.dAt, d)
	b.spare.SubFrac(e, per)
}

// ffTree is EDF-FF's processors in a max tournament tree over their
// spare capacities. Leaf i is bins[i], and every node holds the index of
// the bin with the largest spare capacity in its subtree, or −1 when the
// subtree holds no bin. Capacities are compared with Acc.CmpAcc, so a
// spilled one compares exactly.
type ffTree struct {
	bins []ffBin
	node []int32 // 2·size entries: node[1] is the root, node[size+i] leaf i
	size int     // leaves: 0, or a power of two at least len(bins)
}

// better returns whichever of bins a and b has more spare capacity, a
// on a tie; −1 stands for no bin.
func (t *ffTree) better(a, b int32) int32 {
	if b < 0 || a >= 0 && t.bins[a].spare.CmpAcc(&t.bins[b].spare) >= 0 {
		return a
	}
	return b
}

// holds reports whether node j's subtree holds a bin with spare capacity
// at least u.
func (t *ffTree) holds(j int, u *rational.Acc) bool {
	i := t.node[j]
	return i >= 0 && t.bins[i].spare.CmpAcc(u) >= 0
}

// first returns the lowest index i ≥ lo whose bin has spare capacity at
// least u, or −1 if there is none. It climbs from leaf lo to the first
// subtree at or right of it that holds such a bin, then descends to that
// subtree's leftmost one: O(log M) compares.
func (t *ffTree) first(lo int, u *rational.Acc) int {
	if lo >= len(t.bins) {
		return -1
	}
	j := lo + t.size
	for j&1 == 0 && j > 1 { // a left child: its parent's leaves start at lo too
		j >>= 1
	}
	for !t.holds(j, u) {
		for j&1 == 1 { // the last subtree at its level: climb
			j >>= 1
		}
		if j == 0 {
			return -1
		}
		j++
	}
	for j < t.size {
		j *= 2
		if !t.holds(j, u) {
			j++
		}
	}
	return j - t.size
}

// opened adds the last of bins, just appended, to the tree, doubling
// the tree when its leaves are full.
func (t *ffTree) opened() {
	i := len(t.bins) - 1
	if i < t.size {
		t.node[t.size+i] = int32(i)
		for j := (t.size + i) >> 1; j > 0; j >>= 1 {
			t.node[j] = t.better(t.node[2*j], t.node[2*j+1])
		}
		return
	}
	t.size = max(2*t.size, 1)
	if cap(t.node) >= 2*t.size {
		t.node = t.node[:2*t.size]
	} else {
		t.node = make([]int32, 2*t.size)
	}
	for k := range t.size {
		t.node[t.size+k] = -1
		if k < len(t.bins) {
			t.node[t.size+k] = int32(k)
		}
	}
	for j := t.size - 1; j > 0; j-- {
		t.node[j] = t.better(t.node[2*j], t.node[2*j+1])
	}
}

// lowered restores the tree after bin i's spare capacity fell. Only the
// nodes that held i can change, and they form a path up from its leaf.
func (t *ffTree) lowered(i int) {
	for j := (t.size + i) >> 1; j > 0 && t.node[j] == int32(i); j >>= 1 {
		t.node[j] = t.better(t.node[2*j], t.node[2*j+1])
	}
}

// Losses decomposes the schedulability loss of one task set at the
// computed processor counts, for Figure 4:
//
//   - Pfair: the fraction of PD²'s allocated platform consumed by
//     overhead inflation and quantum rounding, (W′ − U)/M_PD².
//   - EDF: the fraction of EDF-FF's platform consumed by EDF inflation,
//     (U′ − U)/M_FF.
//   - FF: the fraction of EDF-FF's platform stranded by bin-packing,
//     (M_FF − U′)/M_FF.
//
// The paper does not spell out its normalization; this one reproduces the
// qualitative shape (packing loss dominating as utilization grows).
type Losses struct {
	Pfair, EDF, FF float64
}

// ComputeLosses evaluates both schemes on the set and returns the loss
// split along with the two Results.
func ComputeLosses(set task.Set, p Params) (Losses, Result, Result) {
	pd2 := MinProcsPD2(set, p)
	ff := MinProcsEDFFF(set, p)
	var l Losses
	if pd2.Processors > 0 {
		l.Pfair = (pd2.InflatedUtil - pd2.BaseUtil) / float64(pd2.Processors)
	}
	if ff.Processors > 0 {
		l.EDF = (ff.InflatedUtil - ff.BaseUtil) / float64(ff.Processors)
		l.FF = (float64(ff.Processors) - ff.InflatedUtil) / float64(ff.Processors)
	}
	return l, pd2, ff
}
