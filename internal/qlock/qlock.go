// Package qlock models the synchronization techniques that Pfair's tight
// synchrony enables (Section 5.1).
//
// Under Pfair scheduling each subtask executes non-preemptively within its
// slot, so lock-holder preemption — the root of priority inversion and of
// unbounded remote blocking — can be avoided entirely by ensuring no lock
// is held across a quantum boundary: a critical section that is not
// guaranteed to complete before the boundary is simply deferred to the
// start of the task's next quantum [17]. When critical sections are short
// relative to the quantum (the paper cites tens of microseconds against a
// 1 ms quantum), the deferral cost is negligible.
//
// The same synchrony yields tight retry bounds for lock-free objects [18]:
// an operation's retry loop can only be interfered with by operations on
// the other m−1 processors, so within any window in which each processor
// completes at most k operations, an operation succeeds after at most
// (m−1)·k + 1 attempts.
//
// The package provides the admission rule, the analytic bounds, and a
// discrete simulator that verifies both against brute-force interleaving.
package qlock

// FitsInQuantum reports whether a critical section of the given length,
// started at the given offset inside a quantum of size q, completes at or
// before the boundary.
func FitsInQuantum(offset, length, q int64) bool {
	return offset >= 0 && length > 0 && offset+length <= q
}

// MaxDeferral returns the worst-case deferral for sections up to csMax
// long: csMax − 1 (a request issued one tick too late waits that long).
func MaxDeferral(csMax, q int64) int64 {
	if csMax > q {
		//pfair:allowpanic analysis precondition: sections longer than the quantum can never fit
		panic("qlock: csMax exceeds the quantum")
	}
	if csMax <= 0 {
		return 0
	}
	return csMax - 1
}

// MaxBlocking bounds the time a granted-or-deferred request can wait for
// the lock itself on an m-processor system where every section is at most
// csMax long: each of the other m−1 processors can be inside or ahead in
// the queue with one section.
func MaxBlocking(m int, csMax int64) int64 {
	if m < 1 {
		//pfair:allowpanic analysis precondition: processor counts are static configuration values
		panic("qlock: need at least one processor")
	}
	return int64(m-1) * csMax
}

// RetryBound returns the lock-free retry bound: if each other processor
// completes at most opsPerWindow interfering operations during the
// operation's window, the operation succeeds within (m−1)·opsPerWindow + 1
// attempts.
//
//pfair:keep §5.1 lock-free claim: retries are bounded by (m−1)·k+1 under Pfair synchrony (DESIGN.md §3)
func RetryBound(m int, opsPerWindow int64) int64 {
	if m < 1 || opsPerWindow < 0 {
		//pfair:allowpanic analysis precondition: parameters are static configuration values
		panic("qlock: invalid retry-bound parameters")
	}
	return int64(m-1)*opsPerWindow + 1
}

// SimulateLockFree models the retry behaviour of a lock-free object under
// Pfair's synchrony: m processors each attempt to commit one operation per
// quantum window against a shared versioned object. Every attempt reads
// the version, computes, and tries to commit; commits serialize (one per
// tick), so an attempt fails exactly when another processor committed
// in between. It returns the number of attempts each processor needed;
// the maximum is RetryBound(m, 1) = m, achieved by the last processor.
//
//pfair:keep §5.1 lock-free claim: the simulation TestSimulateLockFree checks RetryBound against (DESIGN.md §3)
func SimulateLockFree(m int) []int64 {
	attempts := make([]int64, m)
	done := make([]bool, m)
	remaining := m
	for remaining > 0 {
		// All unfinished processors attempt concurrently this tick; the
		// lowest-indexed one wins the commit, invalidating the rest.
		winner := -1
		for p := 0; p < m; p++ {
			if done[p] {
				continue
			}
			attempts[p]++
			if winner < 0 {
				winner = p
			}
		}
		done[winner] = true
		remaining--
	}
	return attempts
}

// Request is one critical-section request in the simulator: issued at a
// tick offset within the quantum, holding the named lock for Length ticks.
type Request struct {
	Offset int64
	Lock   string
	Length int64
}

// ProcResult reports per-processor simulation outcomes.
type ProcResult struct {
	// Completed counts sections finished within the quantum.
	Completed int
	// Deferred counts sections pushed to the processor's next quantum.
	Deferred int
	// MaxWait is the longest lock-acquisition wait observed (ticks spent
	// queued behind holders on other processors).
	MaxWait int64
}

// SimulateQuantum runs one quantum of q ticks on m processors, each with
// its own request script (sorted by offset, non-overlapping per
// processor). Locks are granted FIFO, by processor index on ties. It
// returns the per-processor results and panics if the no-lock-across-
// boundary invariant would be violated — the admission rule makes that
// impossible, so a panic indicates a protocol bug.
//
// The simulator is deliberately conservative: a request that cannot
// complete by the boundary even if granted immediately is deferred at
// issue time, exactly as the Section 5.1 rule prescribes ("delaying the
// start of critical sections that are not guaranteed to complete by the
// quantum boundary"). A request that fits but gets queued behind other
// holders re-checks the rule when it reaches the head of the queue.
//
//pfair:keep oracle: the brute-force lock simulation MaxBlocking and MaxDeferral are tested against
func SimulateQuantum(scripts [][]Request, q int64) []ProcResult {
	m := len(scripts)
	results := make([]ProcResult, m)
	// held[lock] = tick at which the lock frees.
	held := map[string]int64{}
	// next pending request index per processor and the tick each
	// processor becomes free to issue.
	idx := make([]int, m)
	free := make([]int64, m)

	for tick := int64(0); tick < q; tick++ {
		// Processors issue in index order at each tick (deterministic).
		for p := 0; p < m; p++ {
			if idx[p] >= len(scripts[p]) {
				continue
			}
			r := scripts[p][idx[p]]
			if r.Offset > tick || free[p] > tick {
				continue
			}
			// The request is at the head; find when the lock frees.
			start := tick
			if until, busy := held[r.Lock]; busy && until > start {
				start = until
			}
			wait := start - tick
			if wait > results[p].MaxWait {
				results[p].MaxWait = wait
			}
			if !FitsInQuantum(start, r.Length, q) {
				// Defer to the next quantum: the processor issues
				// nothing more this quantum for this request.
				results[p].Deferred++
				idx[p]++
				free[p] = q
				continue
			}
			end := start + r.Length
			if end > q {
				//pfair:allowpanic invariant: the FitsInQuantum check above already pushed the section into a fresh quantum
				panic("qlock: invariant violated — lock held across the boundary")
			}
			held[r.Lock] = end
			free[p] = end
			results[p].Completed++
			idx[p]++
		}
	}
	return results
}
