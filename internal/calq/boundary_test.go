package calq

import "testing"

// This file pins the span-cap boundary audited for PR 7: a key landing
// exactly at now + DefaultSpanCap must behave identically to any other
// in-span key. The geometry that makes it safe: spanBuckets(span) returns
// W ≥ 2·span, and both the wheel's candidate check and the min-queue's
// cursor probe only degrade to the exact scan when two live keys collide
// in a bucket, which needs a spread ≥ W = 2·DefaultSpanCap — twice the
// boundary distance. So the boundary key stays on the bucket path, and
// even a span-cap-clamped structure holding keys up to 2·cap−1 apart
// never mixes rounds. These tests fail if anyone tightens spanBuckets to
// W ≥ span (off-by-one territory) or weakens the drain/probe guards.

func TestSpanBucketsAtCap(t *testing.T) {
	cases := []struct{ span, want int64 }{
		{0, minBuckets},
		{minBuckets / 2, minBuckets},
		{minBuckets/2 + 1, 2 * minBuckets},
		{DefaultSpanCap - 1, 2 * DefaultSpanCap}, // 2·(cap−1) rounds up
		{DefaultSpanCap, 2 * DefaultSpanCap},     // exactly 2·cap, no rounding
		{DefaultSpanCap + 1, 4 * DefaultSpanCap},
	}
	for _, c := range cases {
		if got := spanBuckets(c.span); got != c.want {
			t.Fatalf("spanBuckets(%d) = %d, want %d", c.span, got, c.want)
		}
	}
	// The invariant every boundary argument below rests on: a key at
	// exactly span ahead sits half a revolution away, never a full one.
	if w := spanBuckets(DefaultSpanCap); DefaultSpanCap >= w {
		t.Fatalf("cap %d must be < one revolution (W=%d)", int64(DefaultSpanCap), w)
	}
}

// TestWheelSpanCapBoundary drives a cap-sized wheel with items at now,
// exactly now+cap, and now+W (the first slot that genuinely shares a
// bucket with now). The boundary item must be found and drained like any
// in-span item; the next-round item must survive the shared-bucket drain.
func TestWheelSpanCapBoundary(t *testing.T) {
	const now = int64(5)
	w := NewWheel[int64](DefaultSpanCap)
	rev := w.mask + 1
	if rev != 2*DefaultSpanCap {
		t.Fatalf("Span() = %d, want %d", rev, int64(2*DefaultSpanCap))
	}
	at := func(slot int64) *Item[int64] {
		it := NewItem(slot)
		w.Add(it, slot)
		return it
	}
	a := at(now)
	b := at(now + DefaultSpanCap) // the audited boundary key
	c := at(now + rev)            // same bucket as a, one round later

	if a.bucket != c.bucket {
		t.Fatalf("items %d and %d must share a bucket (got %d and %d)", now, now+rev, a.bucket, c.bucket)
	}
	if a.bucket == b.bucket {
		t.Fatalf("boundary key %d must NOT share the bucket of %d", now+DefaultSpanCap, now)
	}

	if min, ok := w.NextOccupied(now); !ok || min != now {
		t.Fatalf("NextOccupied(%d) = %d,%v, want %d,true", now, min, ok, now)
	}
	if due := w.Due(now); len(due) != 1 || due[0] != now {
		t.Fatalf("Due(%d) = %v, want exactly [%d]; the round-(now+W) bucket mate must stay queued", now, due, now)
	}
	if !c.queued {
		t.Fatal("item one full revolution ahead was drained a round early")
	}

	// The boundary item is now the minimum; the probe must locate it even
	// though a mixed-round bucket (c's) is also occupied.
	if min, ok := w.NextOccupied(now + 1); !ok || min != now+DefaultSpanCap {
		t.Fatalf("NextOccupied(%d) = %d,%v, want boundary slot %d,true", now+1, min, ok, now+DefaultSpanCap)
	}
	if due := w.Due(now + DefaultSpanCap); len(due) != 1 || due[0] != now+DefaultSpanCap {
		t.Fatalf("Due at the boundary slot = %v, want exactly [%d]", due, now+DefaultSpanCap)
	}
	if b.queued {
		t.Fatal("boundary item still queued after its drain")
	}

	// Only the next-round item remains; the wrap-around probe and the
	// full-revolution drain must both see it.
	if min, ok := w.NextOccupied(now + DefaultSpanCap + 1); !ok || min != now+rev {
		t.Fatalf("wrapped NextOccupied = %d,%v, want %d,true", min, ok, now+rev)
	}
	if due := w.Due(now + rev); len(due) != 1 || due[0] != now+rev {
		t.Fatalf("Due one revolution later = %v, want exactly [%d]", due, now+rev)
	}
	if w.Len() != 0 {
		t.Fatalf("wheel not empty at end: %d items", w.Len())
	}
}

// TestMinQueueSpanCapBoundary mirrors the wheel test for the ready-side
// structure: keys at lo, exactly lo+cap, and lo+W must pop in key order,
// with the boundary key resolved by the cursor probe (its root key
// matches the candidate) and the full-revolution key resolved by the
// exact-scan fallback (same bucket as lo, key ≠ candidate).
func TestMinQueueSpanCapBoundary(t *testing.T) {
	const lo = int64(3)
	q := NewMinQueue[int64](DefaultSpanCap, func(a, b int64) bool { return a < b })
	rev := q.mask + 1
	add := func(key int64) *Entry[int64] {
		e := NewEntry(key)
		q.Add(e, key)
		return e
	}
	ea := add(lo)
	eb := add(lo + DefaultSpanCap)
	ec := add(lo + rev)
	if ea.bucket != ec.bucket || ea.bucket == eb.bucket {
		t.Fatalf("bucket geometry wrong: a=%d b=%d c=%d", ea.bucket, eb.bucket, ec.bucket)
	}

	// White-box: with lo at the cursor, the probe must resolve the
	// boundary configuration without scanning past it — bucket lo holds
	// root key lo (candidate match on the first probe).
	if b := q.minBucket(); b != int(lo&q.mask) {
		t.Fatalf("minBucket = %d, want %d", b, lo&q.mask)
	}

	for i, want := range []int64{lo, lo + DefaultSpanCap, lo + rev} {
		if v, key, ok := q.PeekMin(); !ok || v != want || key != want {
			t.Fatalf("PeekMin #%d = %d/%d,%v, want %d", i, v, key, ok, want)
		}
		if got := q.PopMin(); got != want {
			t.Fatalf("PopMin #%d = %d, want %d", i, got, want)
		}
	}
	if _, _, ok := q.PeekMin(); ok || q.Len() != 0 {
		t.Fatal("queue must be empty after draining the boundary triple")
	}
}

// TestMinQueueCapClampedSpread pins the clamp seam the scheduler relies
// on: a queue built with the capped span still orders keys spread wider
// than the cap (up to and beyond a full revolution) correctly, because
// mixing only degrades the probe to the exact scan, never the order.
func TestMinQueueCapClampedSpread(t *testing.T) {
	q := NewMinQueue[int64](DefaultSpanCap, func(a, b int64) bool { return a < b })
	rev := q.mask + 1
	keys := []int64{
		0, 1,
		DefaultSpanCap - 1, DefaultSpanCap, DefaultSpanCap + 1,
		rev - 1, rev, rev + 1, // around one full revolution: mixed rounds
		2*rev + 7, // two rounds out
	}
	for _, k := range keys {
		q.Add(NewEntry(k), k)
	}
	prev := int64(-1)
	for q.Len() > 0 {
		got := q.PopMin()
		if got <= prev {
			t.Fatalf("pop order broke at %d after %d", got, prev)
		}
		prev = got
	}
	if prev != 2*rev+7 {
		t.Fatalf("last popped = %d, want %d", prev, 2*rev+7)
	}
}
