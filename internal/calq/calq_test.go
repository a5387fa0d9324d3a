package calq

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

func TestBitsetNext(t *testing.T) {
	b := newBitset(1 << 12)
	if got := b.next(0); got != -1 {
		t.Fatalf("next on empty bitset = %d, want -1", got)
	}
	for _, i := range []int{0, 1, 63, 64, 127, 4000, 4095} {
		b.set(i)
	}
	cases := []struct{ from, want int }{
		{0, 0}, {1, 1}, {2, 63}, {63, 63}, {64, 64}, {65, 127},
		{128, 4000}, {4001, 4095}, {4095, 4095},
	}
	for _, c := range cases {
		if got := b.next(c.from); got != c.want {
			t.Errorf("next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	b.clear(63)
	if got := b.next(2); got != 64 {
		t.Errorf("after clear(63): next(2) = %d, want 64", got)
	}
	b.clear(4000)
	b.clear(4095)
	if got := b.next(128); got != -1 {
		t.Errorf("after clearing tail: next(128) = %d, want -1", got)
	}
}

func TestWheelDueBasic(t *testing.T) {
	w := NewWheel[int](100)
	items := make([]*Item[int], 10)
	for i := range items {
		items[i] = NewItem(i)
		w.Add(items[i], int64(i%3)) // slots 0,1,2
	}
	if w.Len() != 10 {
		t.Fatalf("Len = %d, want 10", w.Len())
	}
	for slot := int64(0); slot <= 2; slot++ {
		got := append([]int(nil), w.Due(slot)...)
		sort.Ints(got)
		var want []int
		for i := range items {
			if int64(i%3) == slot {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Due(%d) = %v, want %v", slot, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Due(%d) = %v, want %v", slot, got, want)
			}
		}
	}
	if w.Len() != 0 {
		t.Fatalf("Len after draining = %d, want 0", w.Len())
	}
	if _, ok := w.NextOccupied(0); ok {
		t.Fatal("NextOccupied on empty wheel reported occupancy")
	}
}

// TestWheelWrapAround drives the drain cursor across several full
// revolutions of a small wheel — the hyperperiod case: the same buckets
// are reused round after round and a bucket shared by two rounds only
// yields the current round's items.
func TestWheelWrapAround(t *testing.T) {
	w := NewWheel[int64](40) // 128 buckets
	span := w.mask + 1
	// Arm a "task" per slot residue with period exactly one revolution,
	// so every Due hits a bucket that was filled in a previous round.
	const n = 16
	items := make([]*Item[int64], n)
	next := make([]int64, n)
	for i := range items {
		items[i] = NewItem(int64(i))
		next[i] = int64(i)
		w.Add(items[i], next[i])
	}
	for slot := int64(0); slot < 5*span; slot++ {
		due := w.Due(slot)
		for _, id := range due {
			if next[id] != slot {
				t.Fatalf("slot %d: item %d due, but its slot is %d", slot, id, next[id])
			}
			next[id] += span // re-arm exactly one revolution out
			w.Add(items[id], next[id])
		}
		if slot%span < n && len(due) != 1 {
			t.Fatalf("slot %d: %d items due, want 1", slot, len(due))
		}
	}
	if w.Len() != n {
		t.Fatalf("Len = %d, want %d", w.Len(), n)
	}
}

// TestWheelRoundMixing puts two items one revolution apart in the same
// bucket: NextOccupied must report the earlier one, and only it may be
// drained at its slot.
func TestWheelRoundMixing(t *testing.T) {
	w := NewWheel[string](64) // 128 buckets
	span := w.mask + 1
	near := NewItem("near")
	far := NewItem("far")
	w.Add(near, 5)
	w.Add(far, 5+span) // same bucket, next round
	if got, ok := w.NextOccupied(0); !ok || got != 5 {
		t.Fatalf("NextOccupied = %d,%v, want 5,true", got, ok)
	}
	due := w.Due(5)
	if len(due) != 1 || due[0] != "near" {
		t.Fatalf("Due(5) = %v, want [near]", due)
	}
	if got, ok := w.NextOccupied(6); !ok || got != 5+span {
		t.Fatalf("NextOccupied after drain = %d,%v, want %d,true", got, ok, 5+span)
	}
	if !far.queued || near.queued {
		t.Fatalf("queued flags: near=%v far=%v", near.queued, far.queued)
	}
}

// TestWheelSparse checks NextOccupied across sparse, far-apart buckets,
// including candidates that force the bitmap probe to wrap.
func TestWheelSparse(t *testing.T) {
	w := NewWheel[int](1000) // 2048 buckets
	slots := []int64{3, 700, 1900, 2047}
	for i, s := range slots {
		w.Add(NewItem(i), s)
	}
	for _, c := range []struct{ from, want int64 }{
		{0, 3}, {3, 3}, {4, 700}, {701, 1900}, {1901, 2047}, {2047, 2047},
	} {
		if got, ok := w.NextOccupied(c.from); !ok || got != c.want {
			t.Errorf("NextOccupied(%d) = %d,%v, want %d,true", c.from, got, ok, c.want)
		}
	}
	// From past the last slot the probe wraps into the next revolution —
	// no item lives there, so the round check falls back to the exact
	// scan and still reports the true minimum.
	if got, ok := w.NextOccupied(2048); !ok || got != 3 {
		t.Errorf("NextOccupied(2048) = %d,%v, want 3,true (exact fallback)", got, ok)
	}
}

// TestWheelPastCurrentFuture models the §5.2 join/leave flows at the
// wheel level: joins arm timers in the current or future buckets, a
// leave removes one mid-flight, and an item armed for an already-passed
// slot (its bucket behind the cursor) is still collected — one
// revolution later, when the cursor next visits its bucket — rather
// than lost.
func TestWheelPastCurrentFuture(t *testing.T) {
	w := NewWheel[string](64)
	span := w.mask + 1
	cursor := int64(200)

	past := NewItem("past")
	current := NewItem("current")
	future := NewItem("future")
	leaver := NewItem("leaver")
	w.Add(past, cursor-10)
	w.Add(current, cursor)
	w.Add(future, cursor+17)
	w.Add(leaver, cursor+17)

	if due := w.Due(cursor); len(due) != 1 || due[0] != "current" {
		t.Fatalf("Due(cursor) = %v, want [current]", due)
	}
	w.Remove(leaver)
	if leaver.queued {
		t.Fatal("leaver still queued after Remove")
	}
	if due := w.Due(cursor + 17); len(due) != 1 || due[0] != "future" {
		t.Fatalf("Due(cursor+17) = %v, want [future]", due)
	}
	// The past item surfaces when its bucket comes around again; Due
	// treats any slot ≤ t as due.
	if due := w.Due(cursor - 10 + span); len(due) != 1 || due[0] != "past" {
		t.Fatalf("Due(past+span) = %v, want [past]", due)
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d, want 0", w.Len())
	}
}

// TestWheelEnsureSpanRehash grows a populated wheel and checks nothing is
// lost or duplicated.
func TestWheelEnsureSpanRehash(t *testing.T) {
	w := NewWheel[int](10) // 64 buckets
	var items []*Item[int]
	for i := 0; i < 50; i++ {
		it := NewItem(i)
		items = append(items, it)
		w.Add(it, int64(i*7))
	}
	w.EnsureSpan(5000) // 16384 buckets
	if w.mask+1 < 10000 {
		t.Fatalf("span = %d buckets, want ≥ 10000", w.mask+1)
	}
	if w.Len() != 50 {
		t.Fatalf("Len after rehash = %d, want 50", w.Len())
	}
	seen := map[int]bool{}
	for slot := int64(0); slot < 50*7; slot++ {
		for _, v := range w.Due(slot) {
			if seen[v] {
				t.Fatalf("item %d drained twice", v)
			}
			if int64(v*7) != slot {
				t.Fatalf("item %d drained at %d, want %d", v, slot, v*7)
			}
			seen[v] = true
		}
	}
	if len(seen) != 50 {
		t.Fatalf("drained %d items, want 50", len(seen))
	}
}

// TestWheelAgainstReference fuzzes the wheel against a trivial slice
// scan: the old O(n) structure the calendar queue replaces. Release
// order within a slot is unordered in both, so sets are compared.
// TestWheelReserveGrowsGeometrically pins Reserve's amortized growth.
// Admission calls Reserve once per join with n one larger each time;
// growing to exactly n would reallocate and copy the drain scratch on
// every join, quadratic across a large admission burst (DESIGN.md §10).
// Doubling changes the capacity about log₂ n times.
func TestWheelReserveGrowsGeometrically(t *testing.T) {
	const n = 1 << 16
	limit := bits.Len(n) + 1
	w := NewWheel[int](64)
	changes, last := 0, cap(w.due)
	for i := 1; i <= n; i++ {
		w.Reserve(i)
		if c := cap(w.due); c != last {
			changes, last = changes+1, c
		}
		if cap(w.due) < i {
			t.Fatalf("Reserve(%d) left capacity %d", i, cap(w.due))
		}
		if changes > limit {
			t.Fatalf("capacity changed %d times by Reserve(%d), want ≤ %d over %d calls (geometric growth)", changes, i, limit, n)
		}
	}
}

func TestWheelAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := NewWheel[int](30) // small: force wrap-around and round mixing
	type ref struct {
		slot int64
		live bool
	}
	var refs []ref
	var items []*Item[int]
	cursor := int64(0)
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(4); {
		case op == 0: // add at a random horizon, occasionally far out
			slot := cursor + rng.Int63n(40)
			if rng.Intn(10) == 0 {
				slot = cursor + rng.Int63n(500) // beyond the span: rounds mix
			}
			it := NewItem(len(items))
			items = append(items, it)
			refs = append(refs, ref{slot: slot, live: true})
			w.Add(it, slot)
		case op == 1 && len(items) > 0: // remove a random item (leave)
			i := rng.Intn(len(items))
			w.Remove(items[i])
			refs[i].live = false
		default: // advance the cursor and drain
			due := w.Due(cursor)
			got := map[int]bool{}
			for _, v := range due {
				got[v] = true
			}
			bucketMask := w.mask
			want := 0
			for i := range refs {
				if refs[i].live && refs[i].slot <= cursor && refs[i].slot&bucketMask == cursor&bucketMask {
					want++
					if !got[i] {
						t.Fatalf("step %d cursor %d: item %d (slot %d) not drained", step, cursor, i, refs[i].slot)
					}
					refs[i].live = false
				}
			}
			if len(got) != want {
				t.Fatalf("step %d cursor %d: drained %d items, want %d", step, cursor, len(got), want)
			}
			cursor++
		}
		live := 0
		for i := range refs {
			if refs[i].live {
				live++
			}
		}
		if w.Len() != live {
			t.Fatalf("step %d: Len = %d, reference has %d live", step, w.Len(), live)
		}
	}
}

type qv struct {
	key int64
	id  int
}

func qvLess(a, b qv) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

func TestMinQueuePopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewMinQueue[qv](100, qvLess)
	var want []qv
	for i := 0; i < 300; i++ {
		v := qv{key: rng.Int63n(150), id: i}
		q.Add(NewEntry(v), v.key)
		want = append(want, v)
	}
	sort.Slice(want, func(i, j int) bool { return qvLess(want[i], want[j]) })
	for i, wv := range want {
		if got := q.PopMin(); got != wv {
			t.Fatalf("pop %d = %+v, want %+v", i, got, wv)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
}

// TestMinQueueRoundMixing pushes keys spanning many revolutions of a
// deliberately tiny queue, interleaved with pops: the exact fallback
// must preserve the global (key, less) order.
func TestMinQueueRoundMixing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := NewMinQueue[qv](4, qvLess) // 64 buckets; keys will span thousands
	var entries []*Entry[qv]
	var live []qv
	popAll := func() {
		sort.Slice(live, func(i, j int) bool { return qvLess(live[i], live[j]) })
		for i, wv := range live {
			if got := q.PopMin(); got != wv {
				t.Fatalf("pop %d = %+v, want %+v", i, got, wv)
			}
		}
		live = live[:0]
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			v := qv{key: rng.Int63n(5000), id: round*100 + i}
			e := NewEntry(v)
			entries = append(entries, e)
			q.Add(e, v.key)
			live = append(live, v)
		}
		// Remove a few arbitrary live entries.
		for i := 0; i < 10; i++ {
			j := rng.Intn(len(entries))
			if entries[j].queued {
				v := entries[j].Value
				q.Remove(entries[j])
				for k := range live {
					if live[k] == v {
						live = append(live[:k], live[k+1:]...)
						break
					}
				}
			}
		}
		popAll()
	}
}

// TestMinQueueTardyKey checks the lo cursor: after popping up to a high
// key, adding a lower key (a tardy subtask) must rewind the cursor so
// the new minimum pops first.
func TestMinQueueTardyKey(t *testing.T) {
	q := NewMinQueue[qv](64, qvLess)
	q.Add(NewEntry(qv{key: 500, id: 1}), 500)
	q.Add(NewEntry(qv{key: 600, id: 2}), 600)
	if got := q.PopMin(); got.key != 500 {
		t.Fatalf("first pop key = %d, want 500", got.key)
	}
	q.Add(NewEntry(qv{key: 100, id: 3}), 100) // behind the cursor
	if got := q.PopMin(); got.key != 100 {
		t.Fatalf("tardy pop key = %d, want 100", got.key)
	}
	if got := q.PopMin(); got.key != 600 {
		t.Fatalf("final pop key = %d, want 600", got.key)
	}
}

func TestMinQueueEnsureSpanRehash(t *testing.T) {
	q := NewMinQueue[qv](8, qvLess)
	var want []qv
	for i := 0; i < 100; i++ {
		v := qv{key: int64(i * 13 % 97), id: i}
		q.Add(NewEntry(v), v.key)
		want = append(want, v)
	}
	q.EnsureSpan(4000)
	if q.mask+1 < 8000 {
		t.Fatalf("span = %d buckets, want ≥ 8000", q.mask+1)
	}
	sort.Slice(want, func(i, j int) bool { return qvLess(want[i], want[j]) })
	for i, wv := range want {
		if got := q.PopMin(); got != wv {
			t.Fatalf("pop %d after rehash = %+v, want %+v", i, got, wv)
		}
	}
}

// TestMinQueueRetain: Retain visits every entry in pop order, drops the
// rejected ones (they come back unqueued), keeps the rest under their
// keys so later pops are exactly those of the kept set, and allocates
// nothing.
func TestMinQueueRetain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := NewMinQueue[qv](16, qvLess) // keys span several revolutions
	var entries []*Entry[qv]
	var all []qv
	for i := 0; i < 200; i++ {
		v := qv{key: rng.Int63n(300), id: i}
		e := NewEntry(v)
		entries = append(entries, e)
		q.Add(e, v.key)
		all = append(all, v)
	}
	sort.Slice(all, func(i, j int) bool { return qvLess(all[i], all[j]) })

	var seen, kept []qv
	q.Retain(func(v qv) bool {
		seen = append(seen, v)
		if v.id%3 == 0 {
			return false
		}
		kept = append(kept, v)
		return true
	})
	if len(seen) != len(all) {
		t.Fatalf("visited %d entries, want %d", len(seen), len(all))
	}
	for i := range all {
		if seen[i] != all[i] {
			t.Fatalf("visit %d = %+v, want %+v (pop order)", i, seen[i], all[i])
		}
	}
	if q.Len() != len(kept) {
		t.Fatalf("Len = %d after Retain, want %d", q.Len(), len(kept))
	}
	for _, e := range entries {
		if e.queued != (e.Value.id%3 != 0) {
			t.Fatalf("entry %+v queued = %v after Retain", e.Value, e.queued)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { q.Retain(func(qv) bool { return true }) }); allocs != 0 {
		t.Fatalf("Retain allocated %.0f times, want 0", allocs)
	}
	// A rejected entry can be queued again; pops interleave it correctly.
	back := entries[0]
	q.Add(back, back.Value.key)
	kept = append(kept, back.Value)
	sort.Slice(kept, func(i, j int) bool { return qvLess(kept[i], kept[j]) })
	for i, wv := range kept {
		if got := q.PopMin(); got != wv {
			t.Fatalf("pop %d after Retain = %+v, want %+v", i, got, wv)
		}
	}
}
