// Package taskgen generates the random task sets of the paper's
// experiments, reproducibly from explicit seeds.
//
// The paper's set-ups:
//
//   - Figure 2: for each task count N, 1000 random sets with total
//     utilization at most the processor count, scheduled for 10⁶ quanta.
//   - Figures 3–4: for each N, sets at a controlled total utilization
//     swept from N/30 to N/3; quantum 1 ms, periods multiples of the
//     quantum; per-task cache delays D(T) drawn "randomly between 0 µs and
//     100 µs" with mean 33.3 µs.
//
// Individual utilizations are drawn with the UUniFast algorithm (uniform
// over the simplex of utilizations summing to the target), the standard
// generator in the schedulability-evaluation literature. The paper does
// not name its generator or period distribution; both are configurable
// here and the defaults are documented in EXPERIMENTS.md.
//
// A mean of 33.3 on [0, 100] is matched with the triangular-like density
// f(x) ∝ (1 − x/100), i.e. X = 100·(1 − √U); the paper gives only the
// range and the mean, which this density satisfies exactly.
package taskgen

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"pfair/internal/task"
)

// DefaultPeriodsUS is the default period menu for the overhead
// experiments, in microseconds: multiples of the 1 ms quantum spanning the
// 10 ms–1 s range typical of the multimedia workloads the paper motivates
// Pfair with.
var DefaultPeriodsUS = []int64{10000, 20000, 40000, 50000, 100000, 200000, 400000, 500000, 1000000}

// DefaultPeriodsSlots is the default period menu for slot-level (Pfair)
// simulations, in quanta.
var DefaultPeriodsSlots = []int64{10, 20, 40, 50, 100, 200, 400, 500, 1000}

// Generator produces reproducible random workloads.
type Generator struct {
	src *Source // rng's source, which UUniFast skips rejected draws on
	rng *rand.Rand
}

// New returns a generator seeded deterministically. It draws what a
// generator on math/rand's NewSource(seed) would, from a Source, which
// computes each register word when a draw first reads it: seeding is
// O(1), and Seed reuses the generator for another seed.
func New(seed int64) *Generator {
	src := NewSource(seed)
	return &Generator{src: src, rng: rand.New(src)}
}

// Seed reseeds g in place: every later draw is the one New(seed) would
// make. It allocates nothing, so a caller that generates many seeded
// workloads one after another can keep one Generator for all of them.
func (g *Generator) Seed(seed int64) {
	g.rng.Seed(seed)
}

// SubSeed derives an independent stream seed from a base seed and a path
// of indices (experiment tag, data-point key, trial number, …). The
// parallel experiment harness gives every trial its own generator seeded
// by SubSeed(base, …, trial), so trial t's workload no longer depends on
// how many random draws trials 0…t−1 made — the property that makes the
// fan-out order irrelevant and the parallel output byte-identical to the
// serial output. Mixing uses the splitmix64 finalizer, whose avalanche
// keeps adjacent indices uncorrelated.
func SubSeed(base int64, parts ...int64) int64 {
	h := splitmix64(uint64(base))
	for _, p := range parts {
		h = splitmix64(h ^ uint64(p))
	}
	return int64(h)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uunifastAttempts is how many vectors UUniFast draws before it repairs
// the last one.
const uunifastAttempts = 64

// UUniFast returns n utilizations that sum exactly to total, uniformly
// distributed over the simplex (Bini & Buttazzo). With cap > 0, vectors
// containing a value above cap are resampled; if resampling keeps failing
// (high total relative to n·cap), the last draw is repaired by clamping
// the over-cap values and redistributing the excess to the others in
// proportion to their headroom, preserving the exact total. It returns an
// error if total < 0 or total > n·cap, which no capped vector can satisfy:
// infeasible parameters are an input condition (the fuzzer probes them),
// not a programmer error.
//
// A rejected attempt stops computing at its first value above cap but
// still consumes all n−1 of its random draws, skipping the rest at the
// source, so the generator's state, and everything drawn from it later,
// is the same as if every attempt had been computed in full.
func (g *Generator) UUniFast(n int, total, cap float64) ([]float64, error) {
	if n <= 0 {
		return nil, nil
	}
	if total < 0 {
		return nil, fmt.Errorf("taskgen: negative total utilization %v", total)
	}
	if cap > 0 && total > float64(n)*cap+1e-9 {
		return nil, fmt.Errorf("taskgen: total utilization %v exceeds n·cap = %d·%v", total, n, cap)
	}
	us := make([]float64, n)
	for attempt := 1; attempt < uunifastAttempts; attempt++ {
		if g.draw(us, total, cap, true) {
			return us, nil
		}
	}
	// The last attempt runs to the end whatever it holds: the repair
	// reads all of it.
	if g.draw(us, total, cap, false) {
		return us, nil
	}
	// Repair: one headroom-proportional redistribution suffices, since
	// the total excess never exceeds the total headroom (total ≤ n·cap).
	excess, headroom := 0.0, 0.0
	for i, u := range us {
		if u > cap {
			excess += u - cap
			us[i] = cap
		} else {
			headroom += cap - u
		}
	}
	if excess > 0 && headroom > 0 {
		for i, u := range us {
			if u < cap {
				us[i] = u + excess*(cap-u)/headroom
			}
		}
	}
	return us, nil
}

// draw fills us with one UUniFast vector summing to total and reports
// whether every value is at most cap (always, for cap ≤ 0). With
// stopEarly it returns false at the first value above cap, leaving the
// rest of us stale, after skipping the attempt's remaining random numbers
// at the source.
func (g *Generator) draw(us []float64, total, cap float64, stopEarly bool) bool {
	n := len(us)
	within := true
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * root(g.rng.Float64(), n-1-i)
		us[i] = sum - next
		sum = next
		if cap > 0 && us[i] > cap {
			if stopEarly {
				g.src.skipFloat64(n - 2 - i)
				return false
			}
			within = false
		}
	}
	us[n-1] = sum
	return within && !(cap > 0 && sum > cap)
}

// root returns x^(1/k) for 0 ≤ x ≤ 1 (not −0) and k ≥ 1, bit for bit what
// math.Pow(x, 1/float64(k)) returns. For these arguments Pow takes
// exactly this path: y = 1 returns x, y = 0.5 returns Sqrt(x), and
// otherwise y < 0.5 has no integer part, so Pow returns Exp(y·Log(x))
// scaled by Ldexp(·, 0), which is the identity. Its remaining work, the
// special cases, Modf, Frexp and Ldexp, is skipped. (The Go
// distribution has no assembly Pow on amd64 or arm64, and Exp and Log
// are the same functions either way.)
func root(x float64, k int) float64 {
	switch k {
	case 1:
		return x
	case 2:
		return math.Sqrt(x)
	}
	return math.Exp(1 / float64(k) * math.Log(x))
}

// Set generates n tasks whose utilizations sum approximately to totalUtil,
// with periods drawn uniformly from the menu and integer costs
// cost = clamp(round(u·p), 1, p). Rounding perturbs the total slightly;
// callers needing the exact figure should read it off the returned set.
func (g *Generator) Set(prefix string, n int, totalUtil float64, periods []int64) (task.Set, error) {
	return g.SetCapped(prefix, n, totalUtil, 1.0, periods)
}

// SetCapped is Set with an explicit per-task utilization cap. The Figure 3
// harness caps at 0.9: Section 4 itself observes that tasks whose weight
// is pushed to one by inflation and quantum rounding become unschedulable
// at any processor count, and the paper's (unspecified) generator clearly
// produced none, since its Figure 3 curves stay finite. It returns an
// error for an empty or invalid period menu or infeasible utilization
// parameters rather than panicking, so randomized (fuzzer) configurations
// can probe edge cases without crashing the worker pool. The tasks share
// one allocation, and their names one string.
func (g *Generator) SetCapped(prefix string, n int, totalUtil, cap float64, periods []int64) (task.Set, error) {
	if len(periods) == 0 {
		return nil, fmt.Errorf("taskgen: empty period menu")
	}
	for _, p := range periods {
		if p <= 0 {
			return nil, fmt.Errorf("taskgen: non-positive period %d in menu", p)
		}
	}
	us, err := g.UUniFast(n, totalUtil, cap)
	if err != nil {
		return nil, err
	}
	// One slab and one name string: a set costs the same few
	// allocations at any n.
	var num [20]byte
	var names strings.Builder
	names.Grow(n * (len(prefix) + len(strconv.AppendInt(num[:0], int64(n), 10))))
	tasks := make([]task.Task, n)
	set := make(task.Set, n)
	for i, u := range us {
		p := periods[g.rng.Intn(len(periods))]
		e := int64(math.Round(u * float64(p)))
		if e < 1 {
			e = 1
		}
		if e > p {
			e = p
		}
		from := names.Len()
		names.WriteString(prefix)
		names.Write(strconv.AppendInt(num[:0], int64(i), 10))
		tasks[i] = task.Task{Name: names.String()[from:], Cost: e, Period: p}
		if err := tasks[i].Validate(); err != nil {
			return nil, err
		}
		set[i] = &tasks[i]
	}
	return set, nil
}

// SetMaxUtil generates n tasks with total utilization uniformly random in
// (0, maxTotal] — the Figure 2 workload ("total utilization at most one").
func (g *Generator) SetMaxUtil(prefix string, n int, maxTotal float64, periods []int64) (task.Set, error) {
	total := maxTotal * (0.1 + 0.9*g.rng.Float64())
	return g.Set(prefix, n, total, periods)
}

// CacheDelays draws a cache-related preemption delay for every task:
// X = max·(1 − √U), range [0, max] with mean max/3 (33.3 µs for the
// paper's max of 100 µs). The result is a fixed map so repeated queries
// are consistent.
func (g *Generator) CacheDelays(set task.Set, max int64) map[string]int64 {
	ds := make(map[string]int64, len(set))
	for _, t := range set {
		ds[t.Name] = int64(float64(max) * (1 - math.Sqrt(g.rng.Float64())))
	}
	return ds
}
