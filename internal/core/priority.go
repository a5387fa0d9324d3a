package core

import "fmt"

// Algorithm selects the Pfair priority rule used to order subtasks with
// eligible work. All four algorithms prioritize subtasks on an
// earliest-pseudo-deadline-first basis and differ only in tie-breaking
// (Section 2: "Selecting appropriate tie-breaks turns out to be the most
// important concern in designing correct Pfair algorithms").
type Algorithm int

const (
	// PD2 breaks deadline ties by b-bit (1 first), then by later group
	// deadline. PD² is the most efficient of the three known optimal
	// Pfair algorithms and the paper's subject.
	PD2 Algorithm = iota
	// PD is the earlier optimal algorithm of Baruah, Gehrke, and Plaxton.
	// It applies PD²'s rules followed by further tie-breaks
	// (heavy-before-light, then larger weight first). Any refinement of
	// PD²'s rules remains optimal, since PD² permits remaining ties to be
	// broken arbitrarily; PD is included as the costlier baseline.
	PD
	// PF is the original optimal algorithm of Baruah et al. [5]: deadline
	// ties are broken by lexicographic comparison of the successive
	// b-bits, recursing to successor subtasks while both bits are 1.
	PF
	// EPDF uses the earliest-pseudo-deadline-first rule with no
	// tie-breaks. It is NOT optimal on more than two processors; a
	// regression test pins a feasible set it misses, motivating the
	// tie-break machinery.
	EPDF
	// PD2NoBBit is PD² with the b-bit tie-break deliberately removed and
	// the group-deadline comparison inverted (deadline ties resolve to
	// the EARLIER group deadline, the opposite of PD²'s rule). It is
	// intentionally WRONG — a fault-injection target proving that the
	// differential fuzzing oracle (internal/fuzz) catches scheduler
	// mutations with a small shrunken reproducer. Like every Algorithm
	// it is a total order (see lessWhy), which the ready queue requires.
	// Never use it to schedule real workloads.
	PD2NoBBit
)

func (a Algorithm) String() string {
	switch a {
	case PD2:
		return "PD2"
	case PD:
		return "PD"
	case PF:
		return "PF"
	case EPDF:
		return "EPDF"
	case PD2NoBBit:
		return "PD2-no-bbit"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// prio is the priority-relevant view of a ready subtask. The scheduler
// fills one per task when the task's current subtask changes.
type prio struct {
	deadline int64
	bbit     int
	group    int64 // group deadline (0 for light tasks)
	pat      *Pattern
	index    int64 // subtask index, for PF's recursive comparison
	offset   int64 // IS offset θ(i), shifts PF's recursive deadlines
	id       int   // stable task id: final deterministic tie-break
}

// decidedBy names the comparison rule that resolved a priority query,
// for the observability layer's tie-break accounting. Only the b-bit and
// group-deadline outcomes are traced (they are the rules whose firing
// frequency distinguishes PD² from EPDF); everything else reports one of
// the untraced values.
type decidedBy uint8

const (
	byDeadline decidedBy = iota
	byBBit
	byGroup
	byOther // PD weight rules, PF recursion
	byID
)

// less reports whether a has strictly higher priority than b under alg.
// The final comparison on task id makes the order total and deterministic.
//
//pfair:hotpath
func less(alg Algorithm, a, b *prio) bool {
	r, _ := lessWhy(alg, a, b)
	return r
}

// lessWhy is less plus the rule that decided the comparison. It is the
// single implementation of the priority order; less delegates to it so
// the traced and untraced paths can never diverge.
//
//pfair:hotpath
func lessWhy(alg Algorithm, a, b *prio) (bool, decidedBy) {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline, byDeadline
	}
	switch alg {
	case EPDF:
		// No tie-breaks.
	case PD2NoBBit:
		// Fault injection: PD² minus the b-bit comparison, with the
		// group rule inverted (earlier group deadline first — the
		// opposite of PD²'s rule) and applied unconditionally. The
		// historical form kept PD²'s group direction but gated it on
		// both b-bits being 1; gating on a field the order does not
		// otherwise compare made the relation intransitive (a bbit-0
		// entry could sit between two group-ordered bbit-1 entries by
		// id, forming a cycle), and the ready queue assumes a total
		// order. The inversion keeps the mutant reliably catchable by the
		// fuzz oracle now that the order is lexicographic.
		if a.group != b.group {
			return a.group < b.group, byGroup
		}
	case PD2:
		if a.bbit != b.bbit {
			return a.bbit > b.bbit, byBBit
		}
		if a.bbit == 1 && a.group != b.group {
			return a.group > b.group, byGroup
		}
	case PD:
		if a.bbit != b.bbit {
			return a.bbit > b.bbit, byBBit
		}
		if a.bbit == 1 && a.group != b.group {
			return a.group > b.group, byGroup
		}
		ah, bh := a.pat.Heavy(), b.pat.Heavy()
		if ah != bh {
			return ah, byOther
		}
		if c := a.pat.Weight().Cmp(b.pat.Weight()); c != 0 {
			return c > 0, byOther
		}
	case PF:
		if c := pfCompare(a.pat, a.index, a.offset, b.pat, b.index, b.offset, pfMaxDepth); c != 0 {
			return c > 0, byOther
		}
	}
	return a.id < b.id, byID
}

// SubtaskRef identifies one subtask of a task pattern for priority
// comparison by external simulators (e.g. the variable-quantum study in
// internal/sim).
type SubtaskRef struct {
	Pat    *Pattern
	Index  int64 // 1-based subtask index
	Offset int64 // absolute window shift (join time + IS delay)
	ID     int   // stable task id for the final deterministic tie-break
}

// Less reports whether subtask a has strictly higher priority than b under
// the given algorithm. It is the exported form of the scheduler's internal
// comparison.
//
//pfair:hotpath
func Less(alg Algorithm, a, b SubtaskRef) bool {
	return less(alg, refPrio(a), refPrio(b))
}

//pfair:allowalloc exported comparison wrapper materializes a prio; the scheduler's internal path fills preallocated prios
func refPrio(r SubtaskRef) *prio {
	_, d, b := r.Pat.window(r.Index)
	group := int64(0)
	if r.Pat.heavy {
		group = r.Offset + r.Pat.groupAfter(d)
	}
	return &prio{
		deadline: r.Offset + d,
		bbit:     b,
		group:    group,
		pat:      r.Pat,
		index:    r.Index,
		offset:   r.Offset,
		id:       r.ID,
	}
}

// pfMaxDepth bounds PF's recursive b-bit comparison. Two tasks can only
// remain tied beyond every window boundary if their weights and phases
// coincide, in which case their order is irrelevant to optimality and the
// id tie-break applies. The bound is generous: a tie chain breaks at the
// first b-bit of 0, and every task has one within each period.
const pfMaxDepth = 1 << 14

// pfCompare returns +1 if subtask i of pattern a has higher PF priority
// than subtask j of pattern b, −1 for the converse, and 0 for a full tie.
// Deadlines are compared in absolute time (shifted by the IS offsets).
//
//pfair:hotpath
func pfCompare(a *Pattern, i, aoff int64, b *Pattern, j, boff int64, depth int) int {
	for ; depth > 0; depth-- {
		_, da, ba := a.window(i)
		_, db, bb := b.window(j)
		da, db = da+aoff, db+boff
		if da != db {
			if da < db {
				return 1
			}
			return -1
		}
		if ba != bb {
			if ba > bb {
				return 1
			}
			return -1
		}
		if ba == 0 {
			return 0 // both end their overlap chains here: tie
		}
		i, j = i+1, j+1
	}
	return 0
}
