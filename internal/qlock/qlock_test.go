package qlock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFitsInQuantum(t *testing.T) {
	cases := []struct {
		offset, length, q int64
		want              bool
	}{
		{0, 10, 10, true},
		{0, 11, 10, false},
		{5, 5, 10, true},
		{5, 6, 10, false},
		{9, 1, 10, true},
		{-1, 1, 10, false},
		{0, 0, 10, false},
	}
	for _, c := range cases {
		if got := FitsInQuantum(c.offset, c.length, c.q); got != c.want {
			t.Errorf("FitsInQuantum(%d,%d,%d) = %v, want %v", c.offset, c.length, c.q, got, c.want)
		}
	}
}

func TestBounds(t *testing.T) {
	if got := MaxDeferral(50, 1000); got != 49 {
		t.Errorf("MaxDeferral = %d, want 49", got)
	}
	if got := MaxDeferral(0, 1000); got != 0 {
		t.Errorf("MaxDeferral(0) = %d", got)
	}
	if got := MaxBlocking(4, 50); got != 150 {
		t.Errorf("MaxBlocking = %d, want 150", got)
	}
	if got := RetryBound(4, 1); got != 4 {
		t.Errorf("RetryBound = %d, want 4", got)
	}
	if got := RetryBound(1, 100); got != 1 {
		t.Errorf("uniprocessor RetryBound = %d, want 1", got)
	}
}

// TestQuickDeferralProperties: in a one-request quantum run through
// SimulateQuantum, a fitting request completes without waiting, and a
// deferred one waits q − offset for the boundary, which is positive and
// at most MaxDeferral(length, q).
func TestQuickDeferralProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := int64(10 + r.Intn(1000))
		length := int64(1 + r.Intn(int(q)))
		offset := int64(r.Intn(int(q)))
		res := SimulateQuantum([][]Request{{{Offset: offset, Lock: "L", Length: length}}}, q)[0]
		if FitsInQuantum(offset, length, q) {
			return res.Completed == 1 && res.Deferred == 0 && res.MaxWait == 0
		}
		d := q - offset
		return res.Completed == 0 && res.Deferred == 1 && d > 0 && d <= MaxDeferral(length, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimulateQuantumBasic(t *testing.T) {
	const q = 100
	scripts := [][]Request{
		{{Offset: 0, Lock: "L", Length: 10}},
		{{Offset: 0, Lock: "L", Length: 10}},
		{{Offset: 5, Lock: "M", Length: 3}},
	}
	res := SimulateQuantum(scripts, q)
	if res[0].Completed != 1 || res[0].MaxWait != 0 {
		t.Errorf("proc 0: %+v", res[0])
	}
	// Proc 1 queues behind proc 0 for 10 ticks.
	if res[1].Completed != 1 || res[1].MaxWait != 10 {
		t.Errorf("proc 1: %+v", res[1])
	}
	if res[2].Completed != 1 || res[2].MaxWait != 0 {
		t.Errorf("proc 2: %+v", res[2])
	}
}

func TestSimulateQuantumDefersLateSections(t *testing.T) {
	const q = 20
	scripts := [][]Request{
		{{Offset: 15, Lock: "L", Length: 10}}, // cannot finish by 20
	}
	res := SimulateQuantum(scripts, q)
	if res[0].Deferred != 1 || res[0].Completed != 0 {
		t.Errorf("late section not deferred: %+v", res[0])
	}
}

func TestSimulateQuantumDefersWhenQueuePushesPastBoundary(t *testing.T) {
	const q = 20
	scripts := [][]Request{
		{{Offset: 10, Lock: "L", Length: 9}}, // runs 10..19
		{{Offset: 11, Lock: "L", Length: 5}}, // head at 19, 19+5 > 20 → defer
	}
	res := SimulateQuantum(scripts, q)
	if res[0].Completed != 1 {
		t.Errorf("proc 0: %+v", res[0])
	}
	if res[1].Deferred != 1 || res[1].Completed != 0 {
		t.Errorf("proc 1 should defer at the head of the queue: %+v", res[1])
	}
}

// TestQuickNoLockAcrossBoundary: random scripts never trip the invariant
// panic, and observed waits respect the analytic blocking bound.
func TestQuickNoLockAcrossBoundary(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const q = 200
		m := 1 + r.Intn(5)
		csMax := int64(1 + r.Intn(40))
		locks := []string{"A", "B", "C"}[:1+r.Intn(3)]
		scripts := make([][]Request, m)
		for p := 0; p < m; p++ {
			n := r.Intn(4)
			offs := make([]int64, n)
			for i := range offs {
				offs[i] = int64(r.Intn(q))
			}
			sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
			for _, off := range offs {
				scripts[p] = append(scripts[p], Request{
					Offset: off,
					Lock:   locks[r.Intn(len(locks))],
					Length: 1 + r.Int63n(csMax),
				})
			}
		}
		res := SimulateQuantum(scripts, q) // panics on invariant violation
		bound := MaxBlocking(m, csMax)
		for _, pr := range res {
			if pr.MaxWait > bound {
				t.Logf("wait %d exceeded blocking bound %d", pr.MaxWait, bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimulateLockFree(t *testing.T) {
	for _, m := range []int{1, 2, 4, 8} {
		attempts := SimulateLockFree(m)
		if len(attempts) != m {
			t.Fatalf("m=%d: %d results", m, len(attempts))
		}
		bound := RetryBound(m, 1)
		worst := int64(0)
		for _, a := range attempts {
			if a > bound {
				t.Errorf("m=%d: %d attempts exceed the retry bound %d", m, a, bound)
			}
			if a > worst {
				worst = a
			}
		}
		// The bound is tight: the last processor needs exactly m attempts.
		if worst != bound {
			t.Errorf("m=%d: worst attempts %d, bound %d should be achieved", m, worst, bound)
		}
	}
}
