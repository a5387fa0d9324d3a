// Package hotpath seeds allocation sources inside a //pfair:hotpath
// function, plus the sanctioned buffer-reuse patterns that must pass.
package hotpath

import (
	"fmt"
	"math/rand"

	"pfair/internal/obs"
)

type pair struct{ a, b int }

type sched struct {
	buf   []int
	items []int
	rec   *obs.Recorder
	met   *obs.SchedulerMetrics
}

// Step is the negative case: annotated, but every append targets a
// buffer derived from a struct field, and the struct literal is a plain
// value.
//
//pfair:hotpath
func (s *sched) Step() pair {
	sel := s.buf[:0]
	for _, it := range s.items {
		sel = append(sel, it)
	}
	s.buf = sel
	return pair{len(sel), cap(sel)}
}

// Bad trips every rule.
//
//pfair:hotpath
func (s *sched) Bad() {
	x := make([]int, 4) // want `make in //pfair:hotpath function Bad allocates`
	_ = x
	var out []int
	out = append(out, 1) // want `append to a non-preallocated slice in //pfair:hotpath function Bad`
	_ = out
	fmt.Println("hi") // want `fmt\.Println in //pfair:hotpath function Bad allocates`
	f := func() {}    // want `closure in //pfair:hotpath function Bad allocates`
	f()
	p := &pair{1, 2} // want `&composite literal in //pfair:hotpath function Bad escapes to the heap`
	_ = p
	src := rand.NewSource(1) // want `rand\.NewSource in //pfair:hotpath function Bad allocates \(a new generator state\)`
	r := rand.New(src)       // want `rand\.New in //pfair:hotpath function Bad allocates \(a new generator state\)`
	_ = r
	_ = rand.NewZipf(r, 2, 1, 10) // want `rand\.NewZipf in //pfair:hotpath function Bad allocates`
}

// gen holds a generator built at setup, which the hot path reseeds and
// draws from.
type gen struct{ rng *rand.Rand }

// newGen is not annotated: building the generator here is setup, not
// hot-path work.
func newGen(seed int64) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed))}
}

// Draw is the negative case for math/rand: reseeding and drawing from an
// existing generator, and the package-level draw functions, allocate
// nothing.
//
//pfair:hotpath
func (g *gen) Draw(seed int64) float64 {
	g.rng.Seed(seed)
	return g.rng.Float64() + float64(g.rng.Intn(10)) + rand.Float64()
}

// Observed exercises the sanctioned nil-guard patterns: every obs call
// sits inside an `if x != nil` body whose x is an obs-typed prefix of the
// receiver chain, so nothing here is reported.
//
//pfair:hotpath
func (s *sched) Observed(t int64) {
	if rec := s.rec; rec != nil {
		rec.Emit(obs.Event{Slot: t, Kind: obs.EvIdle, Task: -1, Proc: 0})
	}
	if s.rec != nil {
		s.rec.Emit(obs.Event{Slot: t, Kind: obs.EvIdle, Task: -1, Proc: 1})
	}
	if met := s.met; met != nil {
		met.Slots.Inc() // guard on the chain's obs-typed root suffices
		if h := met.Tardiness; h != nil {
			h.Observe(t) // a local bound from the chain is guarded by its own check
		}
	}
	if s.met != nil && t > 0 {
		s.met.Allocations.Add(t) // conjunction still guards
	} else if rec := s.rec; rec != nil {
		rec.Emit(obs.Event{Slot: t, Kind: obs.EvIdle, Task: -1, Proc: 2})
	}
}

// Unguarded trips the obs rule in each unsanctioned shape.
//
//pfair:hotpath
func (s *sched) Unguarded(t int64) {
	s.rec.Emit(obs.Event{Slot: t}) // want `unguarded obs call in //pfair:hotpath function Unguarded`
	if s.rec == nil {
		return
	}
	// An early-return nil check is not a lexical guard: the rule wants the
	// call inside the if body, where the proof is visible.
	s.rec.Emit(obs.Event{Slot: t}) // want `unguarded obs call in //pfair:hotpath function Unguarded`
	if s.met != nil {
		s.rec.Emit(obs.Event{Slot: t}) // want `unguarded obs call in //pfair:hotpath function Unguarded`
	}
	if rec := s.rec; rec != nil {
		_ = rec
	} else {
		s.met.Slots.Inc() // want `unguarded obs call in //pfair:hotpath function Unguarded`
	}
}

// wheel mirrors the calendar-queue shape of internal/calq: a table of
// buckets allocated at construction, where the hot path appends to one
// indexed bucket whose backing array is retained across drains.
type wheel struct {
	buckets [][]int
	scratch []int
}

// BucketAdd is the calendar-queue-indexing case: appending to an indexed
// struct-field bucket — directly or through a local derived from the
// index expression — is buffer reuse, not fresh allocation.
//
//pfair:hotpath
func (w *wheel) BucketAdd(b, v int) {
	w.buckets[b] = append(w.buckets[b], v)
	bs := w.buckets[b]
	bs = append(bs, v)
	w.buckets[b] = bs
	keep := bs[:0]
	keep = append(keep, v)
	w.buckets[b] = keep
}

// BucketBad still trips the rule: a fresh local slice does not become
// preallocated by being indexed into.
//
//pfair:hotpath
func (w *wheel) BucketBad(b, v int) {
	var fresh [][]int
	fresh = append(fresh, nil)     // want `append to a non-preallocated slice in //pfair:hotpath function BucketBad`
	fresh[0] = append(fresh[0], v) // want `append to a non-preallocated slice in //pfair:hotpath function BucketBad`
	_ = fresh
}

// policy mirrors the engine.Policy shape: the engine's step loop drives
// phases through an interface value.
type policy interface {
	Release(t int64)
	Dispatch(t int64)
}

type loop struct {
	pol policy
	rec *obs.Recorder
}

// EngineStep is the engine-kernel case: dynamic dispatch through a
// policy interface is allocation-free and must pass unremarked, while
// the surrounding loop still obeys the obs-guard and allocation rules.
//
//pfair:hotpath
func (l *loop) EngineStep(t int64) {
	l.pol.Release(t)
	l.pol.Dispatch(t)
	if rec := l.rec; rec != nil {
		rec.Emit(obs.Event{Slot: t, Kind: obs.EvIdle, Task: -1, Proc: 0})
	}
}

// ColdObs is not annotated: unguarded obs calls are fine off the hot path
// (exporters, setup code).
func ColdObs(rec *obs.Recorder) {
	rec.Emit(obs.Event{})
}

// Cold is not annotated, so the same constructs pass unremarked.
func Cold() []int {
	return make([]int, 8)
}
