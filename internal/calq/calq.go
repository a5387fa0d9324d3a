// Package calq provides the bucketed priority structures behind the
// scheduler's sublinear slot hot path: a calendar queue (timing wheel)
// for release timers and a deadline-bucketed min-queue for the eligible
// set.
//
// Both structures exploit the same property of Pfair/periodic workloads:
// the keys flowing through the queues — pseudo-release slots and
// pseudo-deadlines — are dense, near-monotone integers whose live span is
// bounded by the largest task period. Hashing a key into key mod W over a
// power-of-two W buckets therefore keeps each bucket tiny, so insertion
// and removal touch a handful of entries instead of sifting an O(log n)
// path through one global binary heap (the structure Section 4 of the
// paper measures, and the dominant cost in the Fig2 profiles).
//
// Elements carry persistent handles (Item, Entry), allocated once per
// task at admission or embedded in a pooled record, and the buckets are
// intrusive — doubly-linked lists in the wheel, pairing heaps in the
// min-queue — so requeueing an element is pure pointer surgery: the
// steady-state hot path performs no allocation at all, not even amortized
// slice growth. The only growable buffer is the wheel's drain scratch,
// bounded by one entry per task and pre-sized via Reserve at admission.
//
// Neither structure assumes keys stay within the configured span: a key
// far outside it only degrades lookups to an exact scan over occupied
// buckets. Correctness never depends on the span, only performance.
package calq

import "math/bits"

// minBuckets is the smallest wheel size; spans below it round up so the
// occupancy bitset always holds whole 64-bit words.
const minBuckets = 64

// DefaultSpanCap is the bucket-table ceiling schedulers pass to
// EnsureSpan: spans beyond it trade real memory (a 2·span pointer table)
// for avoiding round mixing that the structures already handle correctly
// by exact scan. Callers with longer-spanning keys clamp to this; keys
// beyond the span then cost that scan, never correctness.
const DefaultSpanCap = 1 << 14

// bitset is a two-level occupancy bitmap over bucket indices: one bit per
// bucket, plus a summary bit per 64-bucket word. next runs in O(W/4096)
// word probes worst case, a few loads in practice.
type bitset struct {
	words   []uint64
	summary []uint64
}

func newBitset(n int) bitset {
	nw := (n + 63) / 64
	return bitset{
		words:   make([]uint64, nw),
		summary: make([]uint64, (nw+63)/64),
	}
}

//pfair:hotpath
func (b *bitset) set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
	b.summary[i>>12] |= 1 << (uint(i>>6) & 63)
}

//pfair:hotpath
func (b *bitset) clear(i int) {
	w := i >> 6
	b.words[w] &^= 1 << (uint(i) & 63)
	if b.words[w] == 0 {
		b.summary[w>>6] &^= 1 << (uint(w) & 63)
	}
}

// next returns the smallest set bit ≥ i, or −1 if none.
//
//pfair:hotpath
func (b *bitset) next(i int) int {
	nw := len(b.words)
	w := i >> 6
	if w >= nw {
		return -1
	}
	if rest := b.words[w] >> (uint(i) & 63); rest != 0 {
		return i + bits.TrailingZeros64(rest)
	}
	w++
	for w < nw {
		sw := w >> 6
		rest := b.summary[sw] >> (uint(w) & 63)
		if rest == 0 {
			w = (sw + 1) << 6
			continue
		}
		w += bits.TrailingZeros64(rest)
		return w<<6 | bits.TrailingZeros64(b.words[w])
	}
	return -1
}

// spanBuckets returns the wheel size for a key span: the smallest power
// of two at least twice the span (so a full span of live keys occupies at
// most half a revolution and rounds rarely mix), floored at minBuckets.
func spanBuckets(span int64) int64 {
	if span < 0 {
		span = 0
	}
	n := int64(minBuckets)
	for n < 2*span {
		n <<= 1
	}
	return n
}

// Item is one element of a Wheel, allocated once (NewItem) and reused for
// every insertion. It embeds its bucket's doubly-linked list links, so
// queueing and dequeueing never allocate.
type Item[T any] struct {
	Value  T
	slot   int64
	bucket int32
	queued bool
	next   *Item[T]
	prev   *Item[T]
}

// NewItem returns an unqueued item carrying v.
func NewItem[T any](v T) *Item[T] { return &Item[T]{Value: v} }

// Queued reports whether the item is currently in a wheel.
func (it *Item[T]) Queued() bool { return it.queued }

// Wheel is a calendar queue keyed by absolute slot: bucket slot mod W
// holds every queued item for that residue as an unordered intrusive
// list. Due(t) drains the single bucket for slot t, so releasing the
// subtasks due at a slot costs O(bucket) pointer unlinks instead of
// O(log n) heap pops — the calendar-queue half of the sublinear hot
// path.
type Wheel[T any] struct {
	mask    int64
	buckets []*Item[T] // bucket heads
	occ     bitset
	n       int
	due     []T // scratch returned by Due, reused across calls
}

// NewWheel returns an empty wheel sized for keys spanning at most span
// slots ahead of the drain cursor (typically the maximum task period).
func NewWheel[T any](span int64) *Wheel[T] {
	w := &Wheel[T]{}
	w.grow(spanBuckets(span))
	return w
}

// Len returns the number of queued items.
//
//pfair:hotpath
func (w *Wheel[T]) Len() int { return w.n }

// Reserve grows the drain scratch to hold n items, so Due stays
// allocation-free as long as no more than n items are ever due at once
// (one timer per task makes the task count a natural bound). Growth is
// geometric: admission calls Reserve once per join with n one larger
// each time, and growing to exactly n would reallocate and copy on
// every call — quadratic across a large admission burst. Cold path:
// call at admission.
func (w *Wheel[T]) Reserve(n int) {
	if cap(w.due) < n {
		if min := 2 * cap(w.due); n < min {
			n = min
		}
		due := make([]T, 0, n)
		w.due = append(due, w.due...)
	}
}

// EnsureSpan grows the wheel (rehashing every queued item) so that span
// fits within half a revolution. Shrinking never happens. Cold path:
// called at admission time when a longer-period task joins.
func (w *Wheel[T]) EnsureSpan(span int64) {
	if need := spanBuckets(span); need > w.mask+1 {
		w.grow(need)
	}
}

func (w *Wheel[T]) grow(nb int64) {
	old := w.buckets
	w.mask = nb - 1
	w.buckets = make([]*Item[T], nb)
	w.occ = newBitset(int(nb))
	w.n = 0
	for _, head := range old {
		for it := head; it != nil; {
			next := it.next
			it.queued = false
			it.next, it.prev = nil, nil
			w.Add(it, it.slot)
			it = next
		}
	}
}

// Add queues the item under the given absolute slot. It panics if the
// item is already queued.
//
//pfair:hotpath
func (w *Wheel[T]) Add(it *Item[T], slot int64) {
	if it.queued {
		//pfair:allowpanic API misuse, per the doc comment; mirrors heap.PushItem
		panic("calq: Add of an item that is already in a wheel")
	}
	b := slot & w.mask
	it.slot = slot
	it.bucket = int32(b)
	it.queued = true
	head := w.buckets[b]
	it.next = head
	it.prev = nil
	if head != nil {
		head.prev = it
	} else {
		w.occ.set(int(b))
	}
	w.buckets[b] = it
	w.n++
}

// Remove dequeues the item. It is a no-op if the item is not queued.
//
//pfair:hotpath
func (w *Wheel[T]) Remove(it *Item[T]) {
	if !it.queued {
		return
	}
	w.unlink(it)
	w.n--
}

//pfair:hotpath
func (w *Wheel[T]) unlink(it *Item[T]) {
	if it.prev != nil {
		it.prev.next = it.next
	} else {
		w.buckets[it.bucket] = it.next
		if it.next == nil {
			w.occ.clear(int(it.bucket))
		}
	}
	if it.next != nil {
		it.next.prev = it.prev
	}
	it.next, it.prev = nil, nil
	it.queued = false
}

// Due drains and returns every queued item whose slot is ≤ t, in
// unspecified order. Only the single bucket t mod W is inspected: with
// the wheel sized to the workload's span and a cursor that visits every
// slot (the slot-driven core scheduler) or every armed slot (the
// event-driven simulators), that bucket contains exactly the due items.
// Items of a future round sharing the bucket stay queued. The returned
// slice is internal scratch, valid until the next Due call; size it with
// Reserve to keep this allocation-free.
//
//pfair:hotpath
func (w *Wheel[T]) Due(t int64) []T {
	w.due = w.due[:0]
	for it := w.buckets[t&w.mask]; it != nil; {
		next := it.next
		if it.slot <= t {
			w.unlink(it)
			w.n--
			w.due = append(w.due, it.Value)
		}
		it = next
	}
	return w.due
}

// NextOccupied returns a queued slot and whether the wheel is non-empty.
// The slot is the smallest queued slot ≥ from, or, when the exact-scan
// fallback runs, the smallest queued slot of all. So when no queued slot
// lies behind from the result is the wheel's minimum; otherwise a slot
// behind from may be missed (with slots 3 and 700 queued, from 4 gives
// 700). The common case costs one bitmap probe from from's bucket plus
// one scan of the first occupied bucket; when that bucket's minimum is
// not the candidate slot the probe implies (round mixing, or an item
// behind from in that bucket), the answer is an exact scan over the
// occupied buckets.
//
//pfair:hotpath
func (w *Wheel[T]) NextOccupied(from int64) (int64, bool) {
	if w.n == 0 {
		return 0, false
	}
	start := from & w.mask
	b := w.occ.next(int(start))
	var cand int64
	if b >= 0 {
		cand = from + (int64(b) - start)
	} else {
		b = w.occ.next(0)
		cand = from + (int64(b) - start) + w.mask + 1
	}
	if min := w.bucketMin(b); min != cand {
		// An item in this bucket belongs to another round, so an
		// occupied bucket elsewhere may hold a smaller slot: fall back
		// to the exact scan.
		return w.scanMin(), true
	}
	return cand, true
}

// bucketMin returns the smallest slot in (non-empty) bucket b.
//
//pfair:hotpath
func (w *Wheel[T]) bucketMin(b int) int64 {
	it := w.buckets[b]
	min := it.slot
	for it = it.next; it != nil; it = it.next {
		if it.slot < min {
			min = it.slot
		}
	}
	return min
}

// scanMin returns the smallest slot over every occupied bucket.
//
//pfair:hotpath
func (w *Wheel[T]) scanMin() int64 {
	b := w.occ.next(0)
	min := w.bucketMin(b)
	for {
		b = w.occ.next(b + 1)
		if b < 0 {
			return min
		}
		if m := w.bucketMin(b); m < min {
			min = m
		}
	}
}

// Entry is one element of a MinQueue, allocated once (NewEntry) and
// reused for every insertion. It embeds its bucket's pairing-heap links
// (child: first child; sib: next younger sibling; prev: parent for a
// first child, else the elder sibling), so queueing and dequeueing never
// allocate.
type Entry[T any] struct {
	Value  T
	key    int64
	bucket int32
	queued bool
	child  *Entry[T]
	sib    *Entry[T]
	prev   *Entry[T]
}

// NewEntry returns an unqueued entry carrying v.
func NewEntry[T any](v T) *Entry[T] { return &Entry[T]{Value: v} }

// MinQueue is a bucketed priority queue: entries hash by integer key
// (pseudo-deadline) into key mod W buckets, each bucket an intrusive
// pairing heap ordered by (key, less). PopMin locates the minimum-key
// bucket by bitmap probe from a monotone lower-bound cursor and pops
// that bucket's root, so extraction restructures one deadline-residue
// class — a handful of entries — rather than the whole eligible set.
//
// The pop order is exactly that of a single global heap ordered by
// (key, less): keys separate buckets, and a bucket's root is its
// (key, less)-minimum. With a total less (the scheduler's priority order
// ends in a task-id comparison) the extraction sequence is therefore
// bit-identical to the legacy binary heap's, which is what lets the
// scheduler swap structures without changing one scheduling decision.
type MinQueue[T any] struct {
	less    func(a, b T) bool
	mask    int64
	buckets []*Entry[T] // pairing-heap roots
	occ     bitset
	n       int
	// lo is a monotone conservative cursor: lo ≤ the minimum queued key
	// whenever the queue is non-empty. Add lowers it, PopMin advances it
	// to the popped key.
	lo int64
}

// NewMinQueue returns an empty queue for keys spanning at most span and
// ties ordered by less. less must be consistent with the key (it is
// consulted only between entries of equal key) and total if deterministic
// pop order is required.
func NewMinQueue[T any](span int64, less func(a, b T) bool) *MinQueue[T] {
	q := &MinQueue[T]{less: less}
	q.grow(spanBuckets(span))
	return q
}

// Len returns the number of queued entries.
//
//pfair:hotpath
func (q *MinQueue[T]) Len() int { return q.n }

// EnsureSpan grows the queue (rehashing every entry) so that span fits
// within half a revolution. Cold path: admission time only.
func (q *MinQueue[T]) EnsureSpan(span int64) {
	if need := spanBuckets(span); need > q.mask+1 {
		q.grow(need)
	}
}

func (q *MinQueue[T]) grow(nb int64) {
	old := q.buckets
	q.mask = nb - 1
	q.buckets = make([]*Entry[T], nb)
	q.occ = newBitset(int(nb))
	q.n = 0
	for _, root := range old {
		q.readd(root)
	}
}

// readd re-inserts the subtree rooted at e into the (fresh) bucket
// table, iteratively: children are walked before the node's links are
// cleared. Cold path, used by grow only.
func (q *MinQueue[T]) readd(e *Entry[T]) {
	for e != nil {
		next := e.sib
		child := e.child
		e.queued = false
		e.child, e.sib, e.prev = nil, nil, nil
		q.Add(e, e.key)
		q.readd(child)
		e = next
	}
}

// entryLess orders entries within a bucket: by key, ties by the caller's
// less. Comparing keys first keeps different rounds separated and skips
// the indirect call for the common distinct-key case.
//
//pfair:hotpath
func (q *MinQueue[T]) entryLess(a, b *Entry[T]) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return q.less(a.Value, b.Value)
}

// meld links the two pairing-heap roots, returning the smaller as the
// new root with the larger as its first child.
//
//pfair:hotpath
func (q *MinQueue[T]) meld(a, b *Entry[T]) *Entry[T] {
	if q.entryLess(b, a) {
		a, b = b, a
	}
	b.prev = a
	b.sib = a.child
	if a.child != nil {
		a.child.prev = b
	}
	a.child = b
	return a
}

// mergePairs collapses a detached sibling list into one tree by the
// standard two-pass scheme (pair left to right, then meld right to
// left), implemented with in-place pointer reversal so no stack or
// scratch is needed.
//
//pfair:hotpath
func (q *MinQueue[T]) mergePairs(first *Entry[T]) *Entry[T] {
	if first == nil {
		return nil
	}
	// Pass 1: meld adjacent pairs, chaining the results into a reversed
	// list through sib.
	var paired *Entry[T]
	for first != nil {
		a := first
		b := a.sib
		if b == nil {
			a.sib, a.prev = paired, nil
			paired = a
			break
		}
		next := b.sib
		a.sib, a.prev = nil, nil
		b.sib, b.prev = nil, nil
		m := q.meld(a, b)
		m.sib = paired
		paired = m
		first = next
	}
	// Pass 2: the list is already right-to-left; fold it.
	root := paired
	paired = paired.sib
	root.sib = nil
	for paired != nil {
		next := paired.sib
		paired.sib = nil
		root = q.meld(root, paired)
		paired = next
	}
	root.prev = nil
	return root
}

// Add queues the entry under key. It panics if the entry is already
// queued.
//
//pfair:hotpath
func (q *MinQueue[T]) Add(e *Entry[T], key int64) {
	if e.queued {
		//pfair:allowpanic API misuse, per the doc comment; mirrors heap.PushItem
		panic("calq: Add of an entry that is already in a queue")
	}
	b := key & q.mask
	e.key = key
	e.bucket = int32(b)
	e.queued = true
	e.child, e.sib, e.prev = nil, nil, nil
	if root := q.buckets[b]; root != nil {
		q.buckets[b] = q.meld(root, e)
	} else {
		q.buckets[b] = e
		q.occ.set(int(b))
	}
	if q.n == 0 || key < q.lo {
		q.lo = key
	}
	q.n++
}

// Remove dequeues the entry. It is a no-op if the entry is not queued.
//
//pfair:hotpath
func (q *MinQueue[T]) Remove(e *Entry[T]) {
	if !e.queued {
		return
	}
	b := int(e.bucket)
	if q.buckets[b] == e {
		q.buckets[b] = q.mergePairs(e.child)
		if q.buckets[b] == nil {
			q.occ.clear(b)
		}
	} else {
		// Detach e from its parent's child list, collapse its children
		// into one subtree, and meld that back with the root.
		if e.prev.child == e {
			e.prev.child = e.sib
		} else {
			e.prev.sib = e.sib
		}
		if e.sib != nil {
			e.sib.prev = e.prev
		}
		if sub := q.mergePairs(e.child); sub != nil {
			q.buckets[b] = q.meld(q.buckets[b], sub)
		}
	}
	e.child, e.sib, e.prev = nil, nil, nil
	e.queued = false
	q.n--
}

// PopMin removes and returns the minimum entry under (key, less). It
// panics if the queue is empty.
//
//pfair:hotpath
func (q *MinQueue[T]) PopMin() T {
	if q.n == 0 {
		//pfair:allowpanic API misuse, per the doc comment; mirrors heap.Pop
		panic("calq: PopMin of an empty queue")
	}
	b := q.minBucket()
	e := q.buckets[b]
	q.buckets[b] = q.mergePairs(e.child)
	if q.buckets[b] == nil {
		q.occ.clear(b)
	}
	e.child, e.sib, e.prev = nil, nil, nil
	e.queued = false
	q.n--
	q.lo = e.key
	return e.Value
}

// Retain visits every queued value in pop order and keeps those for
// which keep returns true, removing the rest; the kept entries stay under
// the same keys, so later pops are unchanged. keep must not touch the
// queue. Retain drains the queue and re-adds the kept entries, chaining
// them through their own links, so it never allocates. Cold path:
// horizon accounting and task removal.
func (q *MinQueue[T]) Retain(keep func(T) bool) {
	var head, tail *Entry[T]
	for q.n > 0 {
		e := q.buckets[q.minBucket()]
		q.PopMin()
		if !keep(e.Value) {
			continue
		}
		if tail == nil {
			head = e
		} else {
			tail.sib = e
		}
		tail = e
	}
	for e := head; e != nil; {
		next := e.sib
		q.Add(e, e.key)
		e = next
	}
}

// PeekMin returns the minimum entry under (key, less) and its key
// without removing it, or ok=false when the queue is empty. It performs
// the same bucket probe as PopMin but no heap surgery, so a consumer can
// inspect the best remaining entry (core narrates its selection boundary
// against it) without disturbing the queue.
//
//pfair:hotpath
func (q *MinQueue[T]) PeekMin() (v T, key int64, ok bool) {
	if q.n == 0 {
		return v, 0, false
	}
	e := q.buckets[q.minBucket()]
	return e.Value, e.key, true
}

// minBucket returns the index of the bucket holding the minimum-key
// entry. It probes the occupancy bitmap circularly from the lo cursor,
// accepting the first occupied bucket whose root key matches the
// cursor-derived candidate key (keys within one revolution of lo make
// this the common, O(1)-probe case). A full revolution without a match
// means the live keys span more than one round: fall back to the exact
// scan over occupied buckets.
//
//pfair:hotpath
func (q *MinQueue[T]) minBucket() int {
	d := q.lo
	w := q.mask + 1
	for scanned := int64(0); scanned <= w; {
		start := d & q.mask
		b := int64(q.occ.next(int(start)))
		if b < 0 {
			// Rest of this revolution is empty; wrap to bucket 0.
			scanned += w - start
			d += w - start
			continue
		}
		scanned += b - start
		d += b - start
		if q.buckets[b].key == d {
			return int(b)
		}
		// Occupied, but by another round's keys: skip past it.
		scanned++
		d++
	}
	return q.scanMinBucket()
}

// scanMinBucket returns the bucket with the smallest root key by
// scanning every occupied bucket. Roots are per-bucket minima and
// distinct buckets hold distinct key residues, so the smallest root is
// the global minimum and the answer is unique.
//
//pfair:hotpath
func (q *MinQueue[T]) scanMinBucket() int {
	b := q.occ.next(0)
	best := b
	min := q.buckets[b].key
	for {
		b = q.occ.next(b + 1)
		if b < 0 {
			return best
		}
		if k := q.buckets[b].key; k < min {
			min, best = k, b
		}
	}
}
