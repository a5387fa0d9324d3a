// Package heap provides a generic binary min-heap keyed by an explicit
// comparison function.
//
// Section 4 of the paper states that "binary heaps [were used] to implement
// the priority queues of both schedulers" when measuring the per-invocation
// scheduling overhead of EDF and PD² (Figure 2). This package is that
// reference structure, but no scheduler runs on it any more: the Pfair
// core, the uniprocessor EDF/RM simulator and the global EDF/RM
// simulators of internal/sim all use the bucketed structures of
// internal/calq, whose extraction order is provably identical for the
// total priority orders the schedulers use. Its only users are the
// baselines calq is measured against: perfbench's heap.push_pop_ns probe
// and the root BenchmarkAblationQueue.
//
// The heap also supports removal and priority updates of arbitrary elements
// via the index handle recorded on each item.
package heap

// Item is a heap element paired with its current position, maintained by the
// heap so callers can Remove or Fix arbitrary elements in O(log n).
type Item[T any] struct {
	Value T
	index int // position in the heap array, -1 once removed
}

// Index returns the item's current position in the heap, or -1 if it has
// been removed.
//
//pfair:hotpath
//pfair:keep perfbench's heap.push_pop_ns probe measures this heap; it goes whole with the probe (ROADMAP item 12)
func (it *Item[T]) Index() int { return it.index }

// Heap is a binary min-heap ordered by less. The zero value is not usable;
// construct with New.
type Heap[T any] struct {
	items []*Item[T]
	less  func(a, b T) bool
}

// New returns an empty heap ordered by less (less(a, b) means a has higher
// priority and is popped first).
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements in the heap.
//
//pfair:hotpath
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts v and returns its handle.
//
//pfair:keep perfbench's heap.push_pop_ns probe measures this heap; it goes whole with the probe (ROADMAP item 12)
func (h *Heap[T]) Push(v T) *Item[T] {
	it := &Item[T]{Value: v, index: len(h.items)}
	h.items = append(h.items, it)
	h.up(it.index)
	return it
}

// NewItem returns an unqueued item carrying v, for callers that move the
// same element in and out of heaps repeatedly (PushItem) and want its
// handle allocated once rather than per insertion. The Pfair scheduler's
// per-slot loop depends on this to stay allocation-free in steady state.
//
//pfair:allowalloc allocates the reusable handle; callers hoist the call to admission or setup
func NewItem[T any](v T) *Item[T] { return &Item[T]{Value: v, index: -1} }

// PushItem inserts an item previously returned by NewItem (or removed by
// Pop/Remove) without allocating. It panics if the item is still queued.
//
//pfair:hotpath
func (h *Heap[T]) PushItem(it *Item[T]) {
	if it.index >= 0 {
		//pfair:allowpanic API misuse, per the doc comment; mirrors container/heap
		panic("heap: PushItem of an item that is already in a heap")
	}
	it.index = len(h.items)
	h.items = append(h.items, it)
	h.up(it.index)
}

// Peek returns the minimum element without removing it. It panics if the
// heap is empty.
//
//pfair:hotpath
//pfair:keep perfbench's heap.push_pop_ns probe measures this heap; it goes whole with the probe (ROADMAP item 12)
func (h *Heap[T]) Peek() T {
	return h.items[0].Value
}

// Pop removes and returns the minimum element. It panics if the heap is
// empty.
//
//pfair:hotpath
func (h *Heap[T]) Pop() T {
	it := h.items[0]
	h.swap(0, len(h.items)-1)
	h.items = h.items[:len(h.items)-1]
	if len(h.items) > 0 {
		h.down(0)
	}
	it.index = -1
	return it.Value
}

// Remove deletes the element identified by handle it. It is a no-op if the
// item was already removed.
//
//pfair:hotpath
//pfair:keep perfbench's heap.push_pop_ns probe measures this heap; it goes whole with the probe (ROADMAP item 12)
func (h *Heap[T]) Remove(it *Item[T]) {
	i := it.index
	if i < 0 {
		return
	}
	last := len(h.items) - 1
	h.swap(i, last)
	h.items = h.items[:last]
	if i < last {
		if !h.up(i) {
			h.down(i)
		}
	}
	it.index = -1
}

// Fix re-establishes heap order after the priority of it's value changed in
// place. It panics if the item has been removed.
//
//pfair:hotpath
//pfair:keep perfbench's heap.push_pop_ns probe measures this heap; it goes whole with the probe (ROADMAP item 12)
func (h *Heap[T]) Fix(it *Item[T]) {
	if it.index < 0 {
		//pfair:allowpanic API misuse, per the doc comment; mirrors container/heap
		panic("heap: Fix of removed item")
	}
	if !h.up(it.index) {
		h.down(it.index)
	}
}

//pfair:hotpath
func (h *Heap[T]) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}

// up sifts the element at i toward the root; it reports whether the element
// moved.
//
//pfair:hotpath
func (h *Heap[T]) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i].Value, h.items[parent].Value) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

//pfair:hotpath
func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l].Value, h.items[smallest].Value) {
			smallest = l
		}
		if r < n && h.less(h.items[r].Value, h.items[smallest].Value) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
