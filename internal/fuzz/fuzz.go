// Package fuzz is the differential scheduling oracle: it generates random
// task systems and cross-checks every pair of components that must agree
// on feasibility, using internal/verify as the independent trace judge.
//
// The pairs (one Kind per pairing):
//
//   - KindFullUtil: PD², PD, and PF on exactly-full-utilization sets. All
//     three are optimal, so every generated set must be scheduled with
//     zero misses and a verify.Check-clean trace.
//   - KindEPDF: EPDF vs PD² on the same full-utilization sets. On one or
//     two processors EPDF is optimal and held to the same standard; on
//     three or more its misses are *explained* counterexamples (the
//     scheduler-side reason the tie-break machinery exists), counted but
//     not flagged — unless PD² misses too, which is a real violation.
//   - KindEDF: the uniprocessor EDF simulator vs the exact utilization
//     test, both directions (schedulable ⇒ no misses in a hyperperiod;
//     unschedulable ⇒ at least one miss, since demand exceeds supply).
//   - KindRM: the RM simulator vs exact response-time analysis (the
//     synchronous release is the critical instant, so the two must agree),
//     plus the Liu–Layland and hyperbolic sufficient tests, which may
//     never contradict the exact test.
//   - KindPartition: every bin-packing heuristic vs the branch-and-bound
//     packer: exact ≤ heuristic, exact ≥ ⌈ΣU⌉, and each Pack placement
//     must replay through the acceptance test.
//   - KindDynamic: random joins and leaves under the Section 2 rules;
//     PD² must keep every admitted deadline, and the trace must verify
//     with per-task join offsets.
//   - KindIS: intra-sporadic delay schedules; PD² remains optimal under
//     the IS model, and the trace must verify with the shifted windows.
//   - KindDynPlane: one churn script — joins, reweights, and leaves —
//     replayed against every policy's Submit. Core must keep every
//     deadline and end in the state its accepted Decisions describe;
//     edf, rm and supertask must honor their own feasibility gates (no
//     admitted task misses where the gate guarantees it), and wrr must
//     run every slot.
//
// Every case is reconstructible from (kind, seed, trial) via GenCase —
// the replay key a failure report prints. When a case fails, Shrink
// reduces it (drop a task, halve a cost, decrement a processor, halve the
// horizon) to a minimal reproducer.
package fuzz

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"pfair/internal/rational"
	"pfair/internal/task"
	"pfair/internal/taskgen"
)

// Kind selects which scheduler pairing a case exercises.
type Kind int

const (
	KindFullUtil Kind = iota
	KindEPDF
	KindEDF
	KindRM
	KindPartition
	KindDynamic
	KindIS
	KindDynPlane
	numKinds
)

var kindNames = [...]string{"fullutil", "epdf", "edf", "rm", "partition", "dynamic", "is", "dynplane"}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind resolves a kind name as printed by String.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("fuzz: unknown kind %q", s)
}

// AllKinds returns every kind, in order.
func AllKinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// periodMenu is the fuzzing period menu. Its lcm is 360, so every
// generated set has a hyperperiod dividing 360 and two hyperperiods (the
// Pfair horizon) stay within 720 slots — small enough that thousands of
// cases run in seconds, large enough for rich window interleavings.
var periodMenu = []int64{2, 3, 4, 5, 6, 8, 9, 10, 12}

// Case is one generated test input. It is self-contained: CheckCase needs
// nothing else, and Shrink edits it structurally.
type Case struct {
	Kind  Kind
	Seed  int64 // base seed; Replay() reconstructs the case from these
	Trial int64

	Set     task.Set
	M       int   // processors (Pfair and partition kinds)
	Horizon int64 // slots (Pfair kinds) or time units (EDF/RM)

	// Joins and Leaves give, per task name, the slot at which the task
	// joins (absent = 0) and the slot at which its departure is requested
	// (absent = never). KindDynamic and KindDynPlane.
	Joins  map[string]int64
	Leaves map[string]int64

	// Reweights gives, per task name, a [slot, newCost, newPeriod]
	// triple: at that slot the task requests new parameters through
	// Submit. KindDynPlane only.
	Reweights map[string][3]int64

	// Delays holds per-task IS inter-subtask delay tables. KindIS only.
	Delays map[string][]int64
}

// Replay returns the one-line replay key, e.g. "fullutil/1/42", accepted
// by cmd/fuzz -replay and by ParseReplay.
func (c *Case) Replay() string {
	return fmt.Sprintf("%s/%d/%d", c.Kind, c.Seed, c.Trial)
}

// ParseReplay parses a kind/seed/trial replay key.
func ParseReplay(s string) (Kind, int64, int64, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("fuzz: replay key %q is not kind/seed/trial", s)
	}
	k, err := ParseKind(parts[0])
	if err != nil {
		return 0, 0, 0, err
	}
	seed, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("fuzz: bad seed in replay key %q", s)
	}
	trial, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("fuzz: bad trial in replay key %q", s)
	}
	return k, seed, trial, nil
}

// caseGen holds the two generators GenCase draws from: the case's own
// stream, and the taskgen generator the set-based kinds seed from it.
type caseGen struct {
	rng *rand.Rand
	g   *taskgen.Generator
}

// caseGens lends each GenCase call a caseGen. Reseeding a
// taskgen.Source is O(1) and allocates nothing, so a case pays no
// allocation and no register fill to seed its generators.
var caseGens = sync.Pool{New: func() any {
	return &caseGen{rng: rand.New(taskgen.NewSource(0)), g: taskgen.New(0)}
}}

// GenCase deterministically generates the case for (kind, seed, trial).
// The stream is derived with taskgen.SubSeed, so every trial is an
// independent reproducible stream regardless of worker interleaving.
// Each kind salts its stream with 1000 plus its position in the original
// kind list, so a kind's replay keys reproduce the same cases for life:
// salt 1007 belonged to a retired kind and is skipped, not reused.
//
// The two generators a case draws from are reused across calls and
// reseeded for each: a taskgen.Source computes each register word when
// a draw first reads it, so no state of an earlier case reaches this
// one, and every case is the one generators from math/rand's NewSource
// would draw.
func GenCase(kind Kind, seed, trial int64) Case {
	salt := 1000 + int64(kind)
	if kind >= KindDynPlane {
		salt++
	}
	cg := caseGens.Get().(*caseGen)
	defer caseGens.Put(cg)
	rng, g := cg.rng, cg.g
	rng.Seed(taskgen.SubSeed(seed, salt, trial))
	c := Case{Kind: kind, Seed: seed, Trial: trial}
	switch kind {
	case KindFullUtil, KindEPDF:
		c.Set, c.M = genFullUtil(rng)
		c.Horizon = 2 * c.Set.Hyperperiod()
	case KindEDF, KindRM:
		c.Set = genUniSet(rng, g)
		c.M = 1
		c.Horizon = c.Set.Hyperperiod()
	case KindPartition:
		c.Set = genPartitionSet(rng, g)
	case KindDynamic:
		genDynamic(rng, g, &c)
	case KindIS:
		genIS(rng, g, &c)
	case KindDynPlane:
		genDynPlane(rng, g, &c)
	default:
		//pfair:allowpanic exhaustive switch over Kind; a new kind must be wired here
		panic(fmt.Sprintf("fuzz: GenCase(%v)", kind))
	}
	return c
}

// genFullUtil builds a set whose total weight is *exactly* m for a random
// m in [2,5] — the regime where the optimality claims have no slack and a
// single mis-ordered slot cascades into a miss. Random tasks are drawn
// while they fit; the exact remainder is closed out with weight-1 tasks
// and one final filler task whose weight is the remainder itself (its
// denominator divides lcm(periodMenu) = 360, so it is always a valid
// task).
func genFullUtil(rng *rand.Rand) (task.Set, int) {
	m := 2 + rng.Intn(4)
	acc := rational.NewAcc()
	var set task.Set
	target := 2 + rng.Intn(3*m)
	// Half the campaigns lean heavy: sets of few heavy tasks with diverse
	// periods are where tie-break bugs live (every slot is contended and
	// windows overlap), and a uniform cost draw rarely produces them.
	heavy := rng.Intn(2) == 0
	if heavy {
		target = 2 + rng.Intn(m+2)
	}
	for tries := 0; tries < 64 && len(set) < target; tries++ {
		p := periodMenu[rng.Intn(len(periodMenu))]
		e := 1 + rng.Int63n(p)
		if heavy {
			e = p - rng.Int63n(p/2+1)
		}
		w := rational.New(e, p)
		if acc.Clone().Add(w).CmpInt(int64(m)) > 0 {
			continue
		}
		set = append(set, task.MustNew(fmt.Sprintf("T%d", len(set)), e, p))
		acc.Add(w)
	}
	rem := remainder(m, acc)
	for rational.One().Less(rem) {
		p := periodMenu[rng.Intn(len(periodMenu))]
		set = append(set, task.MustNew(fmt.Sprintf("T%d", len(set)), p, p))
		rem = rem.Sub(rational.One())
	}
	if !rem.IsZero() {
		set = append(set, task.MustNew(fmt.Sprintf("T%d", len(set)), rem.Num(), rem.Den()))
	}
	return set, m
}

// remainder returns m − Σweights as an exact rational. The accumulator's
// value always reduces to a denominator dividing 360 here, so the
// conversion cannot fail.
func remainder(m int, acc *rational.Acc) rational.Rat {
	r, ok := acc.Clone().Sub(rational.FromInt(int64(m))).Rat()
	if !ok {
		//pfair:allowpanic invariant: denominators divide 360 by construction, per the doc comment
		panic("fuzz: full-utilization remainder not representable")
	}
	return r.Neg()
}

// genUniSet draws a uniprocessor set with total utilization in
// [0.5, 1.25] — straddling the Σu = 1 feasibility boundary so both the
// schedulable and the unschedulable branches of the EDF/RM oracles fire.
func genUniSet(rng *rand.Rand, g *taskgen.Generator) task.Set {
	n := 2 + rng.Intn(7)
	total := 0.5 + 0.75*rng.Float64()
	g.Seed(rng.Int63())
	set, err := g.Set("T", n, total, periodMenu)
	if err != nil {
		//pfair:allowpanic generator parameters are in-range by construction
		panic(fmt.Sprintf("fuzz: genUniSet: %v", err))
	}
	return set
}

// genPartitionSet draws a small multiprocessor set (n ≤ 9, so the
// branch-and-bound packer stays fast) with total utilization in [1, 3].
func genPartitionSet(rng *rand.Rand, g *taskgen.Generator) task.Set {
	n := 2 + rng.Intn(8)
	total := 1 + 2*rng.Float64()
	if max := float64(n) * 0.999; total > max {
		total = max
	}
	g.Seed(rng.Int63())
	set, err := g.Set("T", n, total, periodMenu)
	if err != nil {
		//pfair:allowpanic generator parameters are in-range by construction
		panic(fmt.Sprintf("fuzz: genPartitionSet: %v", err))
	}
	return set
}

// genDynamic builds a join/leave scenario: a base set present from slot 0
// at ~60% of capacity, late joiners that may or may not be admitted, and
// departure requests (the scheduler delays each to its safe slot).
func genDynamic(rng *rand.Rand, g *taskgen.Generator, c *Case) {
	c.M = 2 + rng.Intn(3)
	c.Horizon = 180 + rng.Int63n(180)
	c.Joins = map[string]int64{}
	c.Leaves = map[string]int64{}

	n0 := 2 + rng.Intn(3)
	total := (0.4 + 0.3*rng.Float64()) * float64(c.M)
	if max := float64(n0) * 0.999; total > max {
		total = max
	}
	g.Seed(rng.Int63())
	base, err := g.Set("B", n0, total, periodMenu)
	if err != nil {
		//pfair:allowpanic generator parameters are in-range by construction
		panic(fmt.Sprintf("fuzz: genDynamic: %v", err))
	}
	c.Set = base

	nj := 1 + rng.Intn(3)
	for j := 0; j < nj; j++ {
		p := periodMenu[rng.Intn(len(periodMenu))]
		e := 1 + rng.Int63n((p+1)/2)
		name := fmt.Sprintf("J%d", j)
		c.Set = append(c.Set, task.MustNew(name, e, p))
		c.Joins[name] = 1 + rng.Int63n(c.Horizon/2)
	}
	for _, t := range c.Set {
		if rng.Float64() < 0.4 {
			at := c.Horizon/4 + rng.Int63n(c.Horizon/2)
			if at > c.Joins[t.Name] {
				c.Leaves[t.Name] = at
			}
		}
	}
}

// genDynPlane builds a uniprocessor churn script — joins, reweights,
// and leaves — that every policy's Submit replays
// (M = 1 is the one capacity all four policies share: Pfair's
// Equation (2), EDF's Σ bandwidth ≤ 1, RM's hyperbolic bound, and
// WRR's Σ wt ≤ m all gate against a single processor). The base set
// leaves slack so most operations are admitted; joiner weights range
// up to a full processor so the reject path fires too, and reweights
// may land before a task's join or after its leave, exercising the
// unknown-task rejections.
func genDynPlane(rng *rand.Rand, g *taskgen.Generator, c *Case) {
	c.M = 1
	c.Horizon = 120 + rng.Int63n(120)
	c.Joins = map[string]int64{}
	c.Leaves = map[string]int64{}
	c.Reweights = map[string][3]int64{}

	n0 := 2 + rng.Intn(2)
	total := 0.35 + 0.2*rng.Float64()
	g.Seed(rng.Int63())
	base, err := g.Set("B", n0, total, periodMenu)
	if err != nil {
		//pfair:allowpanic generator parameters are in-range by construction
		panic(fmt.Sprintf("fuzz: genDynPlane: %v", err))
	}
	c.Set = base

	nj := 1 + rng.Intn(2)
	for j := 0; j < nj; j++ {
		p := periodMenu[rng.Intn(len(periodMenu))]
		e := 1 + rng.Int63n(p) // up to weight one: some joiners must be refused
		name := fmt.Sprintf("J%d", j)
		c.Set = append(c.Set, task.MustNew(name, e, p))
		c.Joins[name] = 1 + rng.Int63n(c.Horizon/2)
	}
	for _, t := range c.Set {
		if rng.Float64() < 0.35 {
			p := periodMenu[rng.Intn(len(periodMenu))]
			e := 1 + rng.Int63n((p+1)/2)
			at := c.Joins[t.Name] + 1 + rng.Int63n(c.Horizon/2)
			if at >= c.Horizon {
				at = c.Horizon - 1
			}
			c.Reweights[t.Name] = [3]int64{at, e, p}
		}
		if rng.Float64() < 0.4 {
			at := c.Horizon/4 + rng.Int63n(c.Horizon/2)
			if at > c.Joins[t.Name] {
				c.Leaves[t.Name] = at
			}
		}
	}
}

// genIS builds an intra-sporadic scenario: a feasible set where each
// task's subtasks suffer random cumulative delays. Earliness is left at
// zero — an early subtask may legally run before its shifted release,
// which the window check (deliberately) rejects.
func genIS(rng *rand.Rand, g *taskgen.Generator, c *Case) {
	c.M = 1 + rng.Intn(3)
	n := 2 + rng.Intn(4)
	total := (0.5 + 0.4*rng.Float64()) * float64(c.M)
	if max := float64(n) * 0.999; total > max {
		total = max
	}
	g.Seed(rng.Int63())
	set, err := g.Set("T", n, total, periodMenu)
	if err != nil {
		//pfair:allowpanic generator parameters are in-range by construction
		panic(fmt.Sprintf("fuzz: genIS: %v", err))
	}
	c.Set = set
	c.Delays = map[string][]int64{}
	maxDelay := int64(0)
	for _, t := range c.Set {
		d := make([]int64, 6)
		sum := int64(0)
		for i := range d {
			d[i] = rng.Int63n(3)
			sum += d[i]
		}
		c.Delays[t.Name] = d
		if sum > maxDelay {
			maxDelay = sum
		}
	}
	c.Horizon = 2*c.Set.Hyperperiod() + maxDelay
}

// isModel adapts a delay table to core.ReleaseModel: subtask i's
// cumulative offset is the sum of the first min(i, len) deltas (constant
// past the end of the table), which is non-decreasing as the model
// requires.
type isModel struct{ deltas []int64 }

// Offset implements core.ReleaseModel.
//
//pfair:hotpath
func (m isModel) Offset(i int64) int64 {
	k := i
	if k > int64(len(m.deltas)) {
		k = int64(len(m.deltas))
	}
	sum := int64(0)
	for j := int64(0); j < k; j++ {
		sum += m.deltas[j]
	}
	return sum
}

// Earliness implements core.ReleaseModel.
//
//pfair:hotpath
func (isModel) Earliness(int64) int64 { return 0 }
