package main

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"time"
)

// The benchmark shares its machine. A neighbour's load moves every
// CPU-timed figure: on the 2-CPU machine the bounds were set on, the CPU
// time of the same sim round moved by up to 40% within one run, in
// streaks of seconds to minutes. To report work at a
// fixed machine speed, the benchmark times a fixed reference computation,
// which shares no code with the repository, before and after every
// stretch of program work, and converts the stretch's CPU time to what it
// would have taken at the reference's nominal speed.
//
// Which reference tracks the drift was measured, not guessed. Sorting,
// and pointer chasing through rings of 512 KB to 16 MB, tracked it
// poorly: scaled by them, the spread of sim's per-run rate across seeds
// fell from 0.36 to between 0.12 and 0.31 of its median. Pops and
// pushes on a binary heap whose comparisons go through a function value,
// as the schedulers' ready queues do, tracked it best on every workload
// (0.36 to 0.05 on sim, 0.36 to 0.04 on fuzz).

// refStart is the reference's binary min-heap as every call starts it:
// 2^16 keys, 512 KB. refHeap is the copy a call works on.
var refStart = func() []uint64 {
	r := rand.New(rand.NewSource(1))
	h := make([]uint64, 1<<16)
	for i := range h {
		h[i] = r.Uint64() >> 1
	}
	slices.Sort(h) // a sorted slice is a valid heap
	return h
}()

var refHeap = make([]uint64, len(refStart))

// refLess is called through a function value, so the heap pays for an
// indirect call per comparison.
var refLess = func(a, b uint64) bool { return a < b }

// refSink keeps the popped keys observable.
var refSink uint64

// refNominal is the reference's CPU time, in seconds, at the speed the
// end-to-end metrics are reported at: about its median on the machine the
// bounds were set on.
const refNominal = 0.012

// refSeconds pops the minimum of a heap that starts as refStart and
// pushes a slightly larger key back, 2^16 times, and returns the CPU time
// that took. Every call does exactly the same work. The collector is off
// while it runs: turning it off first finishes, untimed, any collection
// the program started, so none runs inside the reference. The program
// still pays for its own collections: they start in its stretches, which
// are long enough to hold many (see edfRoundPeriods), and forcing one at
// every lap would hide the cost of the garbage a short stretch leaves.
func refSeconds() float64 {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	c0 := cpuTime()
	h := refHeap
	copy(h, refStart)
	state := uint64(88172645463325252) // xorshift
	last := len(h) - 1
	for k := 0; k < 1<<16; k++ {
		top := h[0]
		refSink += top
		// Pop: move the last key to the root and sift it down.
		h[0] = h[last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && refLess(h[c+1], h[c]) {
				c++
			}
			if !refLess(h[c], h[i]) {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		// Push: put the new key last and sift it up.
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		h[last] = top + state>>40
		for i := last; i > 0; {
			p := (i - 1) / 2
			if !refLess(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	return (cpuTime() - c0).Seconds()
}

// stopwatch measures the program's work in CPU seconds at the reference's
// nominal speed. Each stretch of work between two laps is scaled by the
// mean of the reference times taken just before and just after it; the
// reference at each lap is not counted.
type stopwatch struct {
	ref          float64       // the reference time taken at the last lap
	start        time.Duration // process CPU time when the stretch began
	nominal, raw float64       // seconds since the last take, scaled and as measured
}

func newStopwatch() *stopwatch {
	s := &stopwatch{ref: refSeconds()}
	s.start = cpuTime()
	return s
}

// lap ends the current stretch of work and starts the next.
func (s *stopwatch) lap() {
	t := (cpuTime() - s.start).Seconds()
	ref := refSeconds()
	s.nominal += t * refNominal / ((s.ref + ref) / 2)
	s.raw += t
	s.ref = ref
	s.start = cpuTime()
}

// take ends the current stretch and returns the seconds of work since the
// previous take, at nominal speed and as measured.
func (s *stopwatch) take() (nominal, raw float64) {
	s.lap()
	nominal, raw = s.nominal, s.raw
	s.nominal, s.raw = 0, 0
	return nominal, raw
}
