// Package engine is the unified simulation kernel every scheduler loop in
// this repository runs on. The paper's evaluation rests on driving many
// policies — PD², PD, PF, EPDF, ERfair, EDF, RM, weighted round-robin,
// supertasking, fault scenarios — over identical timelines; before this
// package existed the repo had grown eight independent simulation loops,
// each re-implementing release/pick/dispatch/accounting with its own (or
// missing) observability wiring and duplicated *Observed entry points.
//
// The engine factors the loop out once. A policy implements the phase
// interface below; the engine owns the clock, the step loop, and the
// observability attachment point (one nil-guarded *obs.Recorder and
// *obs.SchedulerMetrics pair shared by every simulator). Policies that
// accept dynamic churn implement the optional Dynamic interface; the
// engine resolves it once at construction. End-of-run accounting is the
// policy's own, called by its run wrapper after the final Run. Anything
// a policy must do at the top of a step (core's departures, the
// variable-quantum simulator's boundary lattice) it does at the top of
// its own Release, so the hot loop calls the phases and nothing else.
//
// Two time models coexist behind the same interface:
//
//   - slot-driven policies (core, sim global, wrr, supertask) return
//     t+1 from Next and do all their work once per slot;
//   - event-driven policies (edf.Simulator under its EDF or RM rule,
//     sim varquanta) return the time of their next release/completion
//     event, so the engine skips idle spans in O(1). Next may return t
//     itself to request an immediate re-invocation at the same instant
//     (the EDF constant-bandwidth server needs this when a zero-budget
//     head job is dispatched); the engine bounds such zero-advance
//     streaks to catch livelocked policies deterministically.
//
// Allocation discipline: the engine allocates nothing after New — Step is
// annotated //pfair:hotpath and holds only field reads, interface calls,
// and integer arithmetic. Scratch (selection buffers, assignment arrays,
// double buffers) lives in each policy and is preallocated at policy
// construction. Scratch is deliberately per-engine, never package-global:
// the parallel experiment harness (internal/parallel) runs one engine per
// goroutine, so shared scratch would race, and interface-typed shared
// scratch would box on every access. One engine = one policy = one
// arena.
package engine

import (
	"fmt"
	"time"

	"pfair/internal/admission"
	"pfair/internal/obs"
)

// Policy is the pluggable per-step scheduling policy. The engine invokes
// the four phases in order at each instant t it visits:
//
//	Release(t)   bring state current to t: apply execution effects since
//	             the previous invocation, retire completed work, ingest
//	             arrivals due at t, and record deadlines that passed;
//	Pick(t)      select the work to run at t into policy scratch;
//	Dispatch(t)  commit the selection to processors and emit its effects;
//	Account(t)   end-of-step accounting: counters, gauges, callbacks.
//
// A phase with nothing to do for a given policy is an empty method (an
// event-driven policy whose ready queue is already priority-ordered has
// no separate Pick, for example). After Account the engine advances its
// clock to Next(t).
type Policy interface {
	Release(t int64)
	Pick(t int64)
	Dispatch(t int64)
	Account(t int64)
	// Next returns the next instant the engine must invoke the policy:
	// t+1 for slot-driven policies, the next event time for event-driven
	// ones. Returning t requests a zero-advance re-invocation at the
	// same instant; returning less than t is a policy bug and panics.
	Next(t int64) int64
}

// Dynamic is the optional capability of policies that accept mid-run
// task churn (internal/admission): Submit validates the request,
// applies the policy's feasibility test, and — on acceptance — arranges
// for the operation to take effect at a slot boundary, returning the
// Decision recording when. It is resolved once at construction; drivers
// reach it through Engine.Submit without knowing the policy.
//
// Submit must be called between engine steps (the engine is
// single-threaded; every instant between steps is a quantum boundary),
// never from inside a phase method.
type Dynamic interface {
	Submit(req admission.Request) (admission.Decision, error)
}

// maxZeroAdvance bounds consecutive zero-advance steps (Next(t) == t).
// Legitimate same-instant re-invocations settle within a handful of
// steps (one per processor, at worst); a policy that exceeds this many
// is livelocked and failing fast beats spinning forever.
const maxZeroAdvance = 1 << 20

// LivelockError is the typed error the engine surfaces when a policy
// exceeds maxZeroAdvance consecutive zero-advance steps. Before this
// existed the backstop panicked inside Step, which drivers that wrap Run
// (faults, experiments) swallowed or crashed on inconsistently; a typed
// error lets every Run path fail loudly and lets callers distinguish a
// livelocked policy from any other failure with errors.As.
type LivelockError struct {
	// At is the engine instant the policy refused to advance past.
	At int64
	// Steps is the total number of policy invocations when the bound
	// tripped, including the zero-advance streak.
	Steps int64
}

func (e *LivelockError) Error() string {
	return fmt.Sprintf("engine: policy livelocked at t=%d (no time progress after %d zero-advance steps, %d total)", e.At, int64(maxZeroAdvance), e.Steps)
}

// Engine drives one policy over simulated time. It owns the clock, the
// observability attachment, and nothing else — all scheduling state is
// the policy's.
type Engine struct {
	pol Policy
	// dyn is the optional Dynamic hook, resolved once at New.
	dyn Dynamic

	// rec and met are the shared observability attachment point. They are
	// concrete pointers, nil when unobserved; policies cache rec at bind
	// time and nil-guard every emission (see internal/obs and the hotpath
	// analyzer), so an unobserved run costs one predictable branch per
	// emission site. No slot path writes met.
	rec *obs.Recorder
	met *obs.SchedulerMetrics

	// prof is the optional phase profiler (WithProfiler): every
	// profEvery-th step runs the profiled twin of the phase sequence,
	// bracketing each phase with a monotonic clock read. nil when
	// detached; profEvery caches prof.Every() so the steady-state cost of
	// an attached profiler is one nil check, one modulo, and one branch
	// per step.
	prof      *obs.PhaseProfiler
	profEvery int64

	now   int64
	steps int64
	zero  int64 // consecutive zero-advance steps, for the livelock bound
	err   error // sticky failure (livelock); Step is a no-op once set
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithRecorder attaches a trace recorder (nil = unobserved). This is the
// single attachment point that replaced the per-simulator *Observed entry
// points: every policy reads the recorder from its engine at bind time.
//
//pfair:keep test seam: the engine goldens and the sim, wrr, supertask and obs tests attach recorders through it
func WithRecorder(rec *obs.Recorder) Option {
	return func(e *Engine) { e.rec = rec }
}

// WithMetrics attaches a metrics block (nil = unobserved).
//
//pfair:keep test seam: engine and wrr tests attach a metrics block through it
func WithMetrics(met *obs.SchedulerMetrics) Option {
	return func(e *Engine) { e.met = met }
}

// WithProfiler attaches a phase profiler (nil = detached): one step in
// every p.Every() runs with each phase bracketed by monotonic clock
// reads, recording the five durations into p's preallocated histograms.
// Profiling observes wall-clock cost only — it never changes a
// scheduling decision (the golden equivalence suite pins byte-identical
// schedules with the profiler detached, and the phase sequence is the
// same either way) — and the sampled path allocates nothing
// (BenchmarkStepAllocsProfiled).
func WithProfiler(p *obs.PhaseProfiler) Option {
	return func(e *Engine) {
		e.prof = p
		if p != nil {
			e.profEvery = p.Every()
		}
	}
}

// New returns an engine bound to pol at time 0.
func New(pol Policy, opts ...Option) *Engine {
	e := &Engine{}
	for _, opt := range opts {
		opt(e)
	}
	if pol == nil {
		//pfair:allowpanic constructor contract: an engine without a policy has no meaning
		panic("engine: nil policy")
	}
	e.pol = pol
	e.dyn, _ = pol.(Dynamic)
	return e
}

// Now returns the engine clock: the instant the next Step will simulate.
//
//pfair:hotpath
func (e *Engine) Now() int64 { return e.now }

// Submit forwards a dynamic-task request to the bound policy's Submit.
// Policies without the Dynamic capability reject every request with a
// diagnostic error rather than panicking, so generic drivers can probe.
func (e *Engine) Submit(req admission.Request) (admission.Decision, error) {
	if e.dyn == nil {
		return admission.Decision{}, fmt.Errorf("engine: policy %T does not accept dynamic task operations", e.pol)
	}
	return e.dyn.Submit(req)
}

// Recorder returns the attached trace recorder, or nil.
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Metrics returns the attached metrics block, or nil.
func (e *Engine) Metrics() *obs.SchedulerMetrics { return e.met }

// Profiler returns the attached phase profiler, or nil.
//
//pfair:keep test seam: engine and core tests read the attached phase profiler
func (e *Engine) Profiler() *obs.PhaseProfiler { return e.prof }

// Observe swaps the observability attachment (either may be nil).
// Policies that cache the pointers must re-read them afterwards; the
// simulators' own Observe/SetRecorder wrappers do exactly that.
func (e *Engine) Observe(rec *obs.Recorder, met *obs.SchedulerMetrics) {
	e.rec, e.met = rec, met
}

// Step runs one engine step: the four phases and the clock advance. It
// is the single hot loop every simulator in the repository now runs on.
//
//pfair:hotpath
func (e *Engine) Step() {
	if e.err != nil {
		return
	}
	t := e.now
	var next int64
	if pr := e.prof; pr != nil && e.steps%e.profEvery == 0 {
		next = e.stepProfiled(t, pr)
	} else {
		p := e.pol
		p.Release(t)
		p.Pick(t)
		p.Dispatch(t)
		p.Account(t)
		e.steps++
		next = p.Next(t)
	}
	if next < t {
		//pfair:allowpanic policy contract violation: time cannot flow backwards
		panic("engine: policy Next moved time backwards")
	}
	if next == t {
		e.zero++
		if e.zero > maxZeroAdvance {
			e.livelock(t)
			return
		}
	} else {
		e.zero = 0
	}
	e.now = next
}

// stepProfiled is the sampled twin of Step's phase sequence: identical
// invocations in identical order (including the steps increment before
// Next), with a monotonic clock read bracketing each phase and the five
// durations recorded into the profiler's preallocated histograms.
// time.Time values live on the stack and Histogram.Observe is an integer
// update, so the sampled path allocates nothing.
//
//pfair:allowtime phase profiling measures host wall-clock cost, never simulated time; scheduling decisions are unaffected
//pfair:hotpath
func (e *Engine) stepProfiled(t int64, pr *obs.PhaseProfiler) int64 {
	p := e.pol
	t0 := time.Now()
	p.Release(t)
	t1 := time.Now()
	p.Pick(t)
	t2 := time.Now()
	p.Dispatch(t)
	t3 := time.Now()
	p.Account(t)
	t4 := time.Now()
	e.steps++
	next := p.Next(t)
	t5 := time.Now()
	if pr != nil {
		pr.Release.Observe(t1.Sub(t0).Nanoseconds())
		pr.Pick.Observe(t2.Sub(t1).Nanoseconds())
		pr.Dispatch.Observe(t3.Sub(t2).Nanoseconds())
		pr.Account.Observe(t4.Sub(t3).Nanoseconds())
		pr.Next.Observe(t5.Sub(t4).Nanoseconds())
		pr.Samples.Inc()
	}
	return next
}

// livelock records the sticky livelock failure. It lives outside Step so
// that the error allocation — which happens at most once per engine
// lifetime, on the failure path — stays out of the zero-alloc hot path.
//
//pfair:allowalloc the sticky livelock error allocates at most once per engine lifetime, on the failure path
func (e *Engine) livelock(t int64) {
	e.err = &LivelockError{At: t, Steps: e.steps}
}

// Run steps the engine until the clock reaches horizon. Instants at or
// beyond the horizon are not simulated; if the policy's final Next
// overshoots, the clock is clamped to the horizon so a later Run resumes
// exactly where this one stopped. Event-driven simulators that must
// process events landing exactly on the horizon (edf.Simulator, under
// either rule) do so in their own wrappers after Run returns.
//
// Run returns a non-nil error — a *LivelockError — when the policy
// exceeds the zero-advance bound; the error is sticky, so a subsequent
// Run returns it again without stepping.
func (e *Engine) Run(horizon int64) error {
	for e.now < horizon {
		e.Step()
		if e.err != nil {
			return e.err
		}
	}
	if e.now > horizon {
		e.now = horizon
	}
	return e.err
}
