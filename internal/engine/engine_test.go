package engine

import (
	"errors"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/obs"
)

// fakePolicy records the order of phase/hook invocations and drives the
// clock via a scripted Next function.
type fakePolicy struct {
	log  []string
	next func(t int64) int64
}

func (p *fakePolicy) mark(s string, t int64) {
	p.log = append(p.log, s+"@"+itoa(t))
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func (p *fakePolicy) Release(t int64)  { p.mark("release", t) }
func (p *fakePolicy) Pick(t int64)     { p.mark("pick", t) }
func (p *fakePolicy) Dispatch(t int64) { p.mark("dispatch", t) }
func (p *fakePolicy) Account(t int64)  { p.mark("account", t) }
func (p *fakePolicy) Next(t int64) int64 {
	if p.next != nil {
		return p.next(t)
	}
	return t + 1
}

// fakeFull additionally implements the optional Dynamic hook.
type fakeFull struct {
	fakePolicy
}

func (p *fakeFull) Submit(req admission.Request) (admission.Decision, error) {
	p.log = append(p.log, "submit "+req.Name)
	return admission.Decision{Op: req.Op, Name: req.Name}, nil
}

func wantLog(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("log length = %d, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("log[%d] = %q, want %q\ngot:  %v\nwant: %v", i, got[i], want[i], got, want)
		}
	}
}

func TestStepPhaseOrder(t *testing.T) {
	p := &fakePolicy{}
	e := New(p)
	e.Step()
	wantLog(t, p.log, []string{"release@0", "pick@0", "dispatch@0", "account@0"})
	if e.Now() != 1 {
		t.Fatalf("Now() = %d, want 1", e.Now())
	}
	if e.steps != 1 {
		t.Fatalf("Steps() = %d, want 1", e.steps)
	}
}

// TestHookOrderAndBoundary: Run invokes the four phases and nothing else,
// even for a policy with the optional hook; a Submit between steps
// reaches the policy at that step boundary.
func TestHookOrderAndBoundary(t *testing.T) {
	p := &fakeFull{}
	e := New(p)
	e.Run(2)
	if _, err := e.Submit(admission.Request{Op: admission.OpJoin, Name: "x"}); err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	wantLog(t, p.log, []string{
		"release@0", "pick@0", "dispatch@0", "account@0",
		"release@1", "pick@1", "dispatch@1", "account@1",
		"submit x",
		"release@2", "pick@2", "dispatch@2", "account@2",
	})
}

func TestHooksNotResolvedForPlainPolicy(t *testing.T) {
	e := New(&fakePolicy{})
	if e.dyn != nil {
		t.Fatal("plain policy must resolve no optional hooks")
	}
}

func TestRunClampsOvershoot(t *testing.T) {
	p := &fakePolicy{next: func(t int64) int64 { return t + 7 }}
	e := New(p)
	e.Run(10)
	if e.Now() != 10 {
		t.Fatalf("Now() after overshooting Run = %d, want clamp to 10", e.Now())
	}
	if e.steps != 2 { // steps at t=0 and t=7
		t.Fatalf("Steps() = %d, want 2", e.steps)
	}
	// Resuming must continue from the horizon, not the overshot instant.
	e.Run(11)
	if e.steps != 3 || e.Now() != 11 {
		t.Fatalf("after resume: Steps=%d Now=%d, want 3 and 11", e.steps, e.Now())
	}
}

func TestZeroAdvanceAllowedThenProgress(t *testing.T) {
	calls := 0
	p := &fakePolicy{next: func(t int64) int64 {
		calls++
		if calls%3 != 0 { // two same-instant re-invocations per instant
			return t
		}
		return t + 1
	}}
	e := New(p)
	e.Run(2)
	if e.steps != 6 {
		t.Fatalf("Steps() = %d, want 6 (3 invocations per instant × 2 instants)", e.steps)
	}
	if e.zero != 0 {
		t.Fatalf("zero-advance streak = %d after progress, want 0", e.zero)
	}
}

func TestTimeReversalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Next moving time backwards")
		}
	}()
	p := &fakePolicy{next: func(t int64) int64 { return t - 1 }}
	New(p).Step()
}

func TestNilPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil policy")
		}
	}()
	New(nil)
}

// TestLivelockBackstop pins the loud-failure contract: a policy whose
// Next never advances must make Run return a typed *LivelockError — not
// spin forever, not panic, and above all not return as if the horizon had
// been reached cleanly.
func TestLivelockBackstop(t *testing.T) {
	p := &fakePolicy{next: func(t int64) int64 { return t }}
	e := New(p)
	err := e.Run(1)
	if err == nil {
		t.Fatal("expected livelock error on unbounded zero-advance streak, got clean return")
	}
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("Run error = %T (%v), want *LivelockError", err, err)
	}
	if ll.At != 0 {
		t.Fatalf("LivelockError.At = %d, want 0 (the instant the policy refused to leave)", ll.At)
	}
	if ll.Steps != maxZeroAdvance+1 {
		t.Fatalf("LivelockError.Steps = %d, want %d", ll.Steps, int64(maxZeroAdvance)+1)
	}
	if e.Now() != 0 {
		t.Fatalf("Now() = %d after livelock at t=0, want 0", e.Now())
	}

	// The error is sticky: the engine keeps it, further Steps are no-ops,
	// and a repeated Run returns it again without re-spinning.
	if e.err != err {
		t.Fatalf("sticky error = %v, want the Run error", e.err)
	}
	steps := e.steps
	e.Step()
	if e.steps != steps {
		t.Fatal("Step after livelock must be a no-op")
	}
	if again := e.Run(1); again != err {
		t.Fatalf("second Run = %v, want the same sticky error", again)
	}
}

func TestObserveSwapsAttachment(t *testing.T) {
	e := New(&fakePolicy{})
	if e.Recorder() != nil || e.Metrics() != nil {
		t.Fatal("unobserved engine must report nil attachments")
	}
	rec := obs.NewRecorder(64)
	e.Observe(rec, nil)
	if e.Recorder() != rec {
		t.Fatal("Observe must install the recorder")
	}
	e.Observe(nil, nil)
	if e.Recorder() != nil {
		t.Fatal("Observe(nil, nil) must detach")
	}
}

// BenchmarkEngineOverhead measures the pure kernel cost per step — hook
// dispatch, phase calls, clock advance — over a no-op policy. Guarded at
// 0 allocs/op like every simulator hot path.
func BenchmarkEngineOverhead(b *testing.B) {
	e := New(&nopPolicy{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

type nopPolicy struct{}

func (nopPolicy) Release(t int64)    {}
func (nopPolicy) Pick(t int64)       {}
func (nopPolicy) Dispatch(t int64)   {}
func (nopPolicy) Account(t int64)    {}
func (nopPolicy) Next(t int64) int64 { return t + 1 }

func TestStepZeroAllocs(t *testing.T) {
	e := New(&nopPolicy{})
	if avg := testing.AllocsPerRun(200, func() { e.Step() }); avg != 0 {
		t.Fatalf("engine Step allocates %.1f allocs/op, want 0", avg)
	}
}

// TestProfilerSamplingCadence: with every=3 the profiled twin runs on
// steps 0, 3, 6, 9 — ⌈N/every⌉ samples over N steps — and each sampled
// step contributes exactly one observation to every phase histogram.
func TestProfilerSamplingCadence(t *testing.T) {
	prof := obs.NewPhaseProfiler(nil, 3)
	p := &fakePolicy{}
	e := New(p, WithProfiler(prof))
	if e.Profiler() != prof {
		t.Fatal("Profiler() does not return the attached profiler")
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := prof.Samples.Value(); got != 4 {
		t.Errorf("Samples = %d over 10 steps at every=3, want 4", got)
	}
	for _, h := range []*obs.Histogram{prof.Release, prof.Pick, prof.Dispatch, prof.Account, prof.Next} {
		if h.Count() != prof.Samples.Value() {
			t.Errorf("phase histogram has %d observations, want %d (one per sample)", h.Count(), prof.Samples.Value())
		}
	}
}

// TestProfiledStepPhaseOrder: the profiled twin must invoke the phases in
// the same order, with the same arguments, and advance steps/now exactly
// like the unprofiled path — the property the golden equivalence suite
// pins end to end.
func TestProfiledStepPhaseOrder(t *testing.T) {
	p := &fakePolicy{}
	e := New(p, WithProfiler(obs.NewPhaseProfiler(nil, 1)))
	e.Step()
	wantLog(t, p.log, []string{"release@0", "pick@0", "dispatch@0", "account@0"})
	if e.Now() != 1 || e.steps != 1 {
		t.Fatalf("Now()=%d Steps()=%d after one profiled step, want 1, 1", e.Now(), e.steps)
	}
}

func TestWithProfilerNilDetaches(t *testing.T) {
	e := New(&fakePolicy{}, WithProfiler(obs.NewPhaseProfiler(nil, 1)))
	e2 := New(&fakePolicy{}, WithProfiler(nil))
	if e.Profiler() == nil {
		t.Error("profiler not attached")
	}
	if e2.Profiler() != nil {
		t.Error("WithProfiler(nil) must leave the engine detached")
	}
}

// TestStepProfiledZeroAllocsEngine pins the sampled path itself (every=1:
// every step profiled) at zero allocations.
func TestStepProfiledZeroAllocsEngine(t *testing.T) {
	prof := obs.NewPhaseProfiler(nil, 1)
	e := New(nopPolicy{}, WithProfiler(prof))
	e.Step() // warm up
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	if allocs != 0 {
		t.Fatalf("profiled Step allocates %v/op, want 0", allocs)
	}
	if prof.Samples.Value() < 1000 {
		t.Fatalf("profiler did not sample: %d", prof.Samples.Value())
	}
}
