package engine_test

// Golden equivalence suite for the engine migration: every simulation
// loop in the repository is run over a pinned deterministic scenario and
// its full observable output — schedule trace, counters, miss lists, and
// (where wired) the obs event stream — is serialized to a text file under
// testdata/. The files were generated against the pre-refactor loops
// (`go test ./internal/engine -run TestGoldenEquivalence -update` at the
// commit that introduced them) and re-verified byte-for-byte after each
// loop was migrated onto internal/engine, so the migration provably
// changed no schedule, counter, or event sequence.
//
// Regenerate with -update only when an intentional behaviour change is
// being made, and say so in the commit message.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/edf"
	"pfair/internal/faults"
	"pfair/internal/obs"
	"pfair/internal/rational"
	"pfair/internal/rm"
	"pfair/internal/sim"
	"pfair/internal/supertask"
	"pfair/internal/task"
	"pfair/internal/wrr"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current implementation")

// dump accumulates one scenario's serialized output.
type dump struct{ sb strings.Builder }

func (d *dump) f(format string, args ...any) { fmt.Fprintf(&d.sb, format+"\n", args...) }

func (d *dump) events(rec *obs.Recorder) {
	d.f("events total=%d dropped=%d", rec.Total(), rec.Dropped())
	for _, e := range rec.Events() {
		d.f("  t=%d kind=%s task=%d proc=%d a=%d b=%d", e.Slot, e.Kind, e.Task, e.Proc, e.A, e.B)
	}
}

// coreStats dumps a core run's counters and misses; name resolves a
// miss's task id, so the dump shows names.
func (d *dump) coreStats(st core.Stats, name func(id int) string) {
	d.f("slots=%d allocations=%d ctxsw=%d migrations=%d preemptions=%d misses=%d",
		st.Slots, st.Allocations, st.ContextSwitches, st.Migrations, st.Preemptions, len(st.Misses))
	for _, m := range st.Misses {
		d.f("  miss task=%s subtask=%d deadline=%d scheduled=%d", name(m.Task), m.Subtask, m.Deadline, m.ScheduledAt)
	}
}

// slotLogger captures the OnSlot callback stream, with task ids resolved
// to names through s.
type slotLogger struct {
	d *dump
	s *core.Scheduler
}

func (l *slotLogger) log(t int64, assigned []core.Assignment) {
	var sb strings.Builder
	for _, a := range assigned {
		fmt.Fprintf(&sb, " %d:%s/%d", a.Proc, l.s.Name(a.Task), a.Subtask)
	}
	l.d.f("slot %d%s", t, sb.String())
}

func goldenSet() task.Set {
	return task.Set{
		task.MustNew("A", 1, 3),
		task.MustNew("B", 2, 5),
		task.MustNew("C", 3, 8),
		task.MustNew("D", 1, 2),
	}
}

func dumpCore(alg core.Algorithm, opts core.Options, horizon int64) string {
	var d dump
	s := core.NewScheduler(2, alg, opts)
	rec := obs.NewRecorder(1 << 15)
	s.Observe(rec, nil)
	lg := &slotLogger{&d, s}
	s.OnSlot(lg.log)
	for _, t := range goldenSet() {
		if err := s.Join(t); err != nil {
			d.f("join %v: %v", t, err)
		}
	}
	s.RunUntil(horizon)
	s.FinishMisses(horizon)
	d.coreStats(s.Stats(), s.Name)
	for _, name := range s.Tasks() {
		lag, err := s.Lag(name)
		d.f("lag %s = %v err=%v", name, lag, err)
	}
	d.events(rec)
	return d.sb.String()
}

// dumpCoreDynamic exercises join/leave/reweight mid-run, the departures
// and re-joins core applies at the top of its Release phase.
func dumpCoreDynamic() string {
	var d dump
	s := core.NewScheduler(2, core.PD2, core.Options{})
	lg := &slotLogger{&d, s}
	s.OnSlot(lg.log)
	join := func(name string, e, p int64) {
		if err := s.Join(task.MustNew(name, e, p)); err != nil {
			d.f("join %s: %v", name, err)
		}
	}
	join("A", 1, 3)
	join("H", 7, 9) // heavy
	s.RunUntil(10)
	join("B", 1, 2)
	dec, err := s.Submit(admission.Leave("A"))
	d.f("leave A at=%d err=%v", dec.EffectiveAt, err)
	s.RunUntil(30)
	dec, err = s.Submit(admission.Reweight("B", 1, 4))
	d.f("reweight B at=%d err=%v", dec.EffectiveAt, err)
	s.RunUntil(60)
	join("C", 2, 5)
	s.RunUntil(90)
	s.FinishMisses(90)
	d.coreStats(s.Stats(), s.Name)
	d.f("tasks=%s", strings.Join(s.Tasks(), ","))
	return d.sb.String()
}

func dumpEDF() string {
	var d dump
	s := edf.NewSimulator()
	rec := obs.NewRecorder(1 << 15)
	s.SetRecorder(rec)
	cfgs := []edf.Config{
		{Task: task.MustNew("A", 2, 10)},
		{Task: task.MustNew("B", 3, 15), ActualCost: func(job int64) int64 {
			if job%2 == 0 {
				return 9 // periodic overrun, isolated by the CBS
			}
			return 3
		}, Server: &edf.CBS{Budget: 3, Period: 15}},
		{Task: task.MustNew("C", 1, 5)},
	}
	for _, c := range cfgs {
		if err := s.Add(c); err != nil {
			d.f("add %v: %v", c.Task, err)
		}
	}
	s.Run(300)
	st := s.Stats()
	d.f("jobs=%d completed=%d preemptions=%d ctxsw=%d invocations=%d postponements=%d misses=%d",
		st.Jobs, st.Completed, st.Preemptions, st.ContextSwitches, st.Invocations, st.Postponements, len(st.Misses))
	for _, m := range st.Misses {
		d.f("  miss task=%s job=%d deadline=%d finished=%d", m.Task, m.Job, m.Deadline, m.FinishedAt)
	}
	d.events(rec)
	return d.sb.String()
}

func dumpRM(set task.Set, horizon int64) string {
	var d dump
	resp, ok := rm.ResponseTimes(set)
	d.f("responses=%v exact=%v ll=%v hyperbolic=%v", resp, ok, rm.SchedulableLL(set), admission.Hyperbolic(set, nil) == nil)
	s := edf.NewRMSimulator()
	for _, tk := range set {
		if err := s.Add(edf.Config{Task: tk}); err != nil {
			d.f("add %v: %v", tk, err)
		}
	}
	s.Run(horizon)
	st := s.Stats()
	d.f("jobs=%d completed=%d preemptions=%d ctxsw=%d misses=%d",
		st.Jobs, st.Completed, st.Preemptions, st.ContextSwitches, len(st.Misses))
	for _, m := range st.Misses {
		d.f("  miss task=%s job=%d deadline=%d finished=%d", m.Task, m.Job, m.Deadline, m.FinishedAt)
	}
	return d.sb.String()
}

func dumpGlobal(pol sim.Policy) string {
	var d dump
	set := sim.DhallSet(2, 100)
	rec := obs.NewRecorder(1 << 15)
	st := runGlobalObserved(set, 2, pol, 1500, rec)
	d.f("jobs=%d completed=%d misses=%d maxlateness=%d", st.Jobs, st.Completed, len(st.Misses), st.MaxLateness(1500))
	for _, m := range st.Misses {
		d.f("  miss task=%s job=%d deadline=%d", m.Task, m.Job, m.Deadline)
	}
	d.events(rec)
	return d.sb.String()
}

// vqWorkload regenerates the pinned variable-quantum counterexample of
// internal/sim's TestVariableQuantaMisses (same seeds, same shape).
func vqWorkload() ([]sim.VQTask, int, int64, int64) {
	const q = 10
	r := rand.New(rand.NewSource(767))
	m := 2 + r.Intn(3)
	var set task.Set
	budget := rational.NewAcc()
	for i := 0; i < 14; i++ {
		p := int64(2 + r.Intn(7))
		e := int64(1 + r.Intn(int(p)))
		w := rational.New(e, p)
		if budget.Clone().Add(w).CmpInt(int64(m)) > 0 {
			continue
		}
		budget.Add(w)
		set = append(set, task.MustNew(fmt.Sprintf("T%d", len(set)), e, p))
	}
	seeds := make([]int64, len(set))
	for i := range seeds {
		seeds[i] = r.Int63()
	}
	vts := make([]sim.VQTask, len(set))
	for i, tk := range set {
		tk := tk
		js := seeds[i]
		vts[i] = sim.VQTask{Task: tk, ActualTicks: func(job int64) int64 {
			rr := rand.New(rand.NewSource(js + job*7919))
			if rr.Intn(3) == 0 {
				a := tk.Cost*q - 1 - rr.Int63n(tk.Cost*q/2+1)
				if a < 1 {
					a = 1
				}
				return a
			}
			return tk.Cost * q
		}}
	}
	horizon := set.Hyperperiod() * q * 4
	return vts, m, int64(q), horizon
}

func dumpQuanta(mode sim.QuantumMode) string {
	var d dump
	vts, m, q, horizon := vqWorkload()
	rec := obs.NewRecorder(1 << 15)
	res := runQuantaObserved(vts, m, q, horizon, mode, rec)
	d.f("completed=%d misses=%d", res.Completed, len(res.Misses))
	for _, miss := range res.Misses {
		d.f("  miss task=%s job=%d deadline=%d", miss.Task, miss.Job, miss.Deadline)
	}
	d.events(rec)
	return d.sb.String()
}

func dumpWRR() string {
	var d dump
	set := task.Set{task.MustNew("short", 1, 4), task.MustNew("long", 12, 16)}
	s, err := wrr.NewScheduler(1, set)
	if err != nil {
		d.f("new: %v", err)
		return d.sb.String()
	}
	s.OnSlot(func(t int64, allocated []string) {
		d.f("slot %d %s", t, strings.Join(allocated, ","))
	})
	s.RunUntil(320)
	st := s.Stats()
	d.f("slots=%d allocations=%d ctxsw=%d misses=%d", st.Slots, st.Allocations, st.ContextSwitches, len(st.Misses))
	for _, m := range st.Misses {
		d.f("  miss task=%s job=%d deadline=%d", m.Task, m.Job, m.Deadline)
	}
	return d.sb.String()
}

func dumpSupertask(reweighted bool) string {
	var d dump
	sys := supertask.NewSystem(2, core.PD2)
	st := &supertask.Supertask{Name: "S", Components: task.Set{
		task.MustNew("T", 1, 5), task.MustNew("U", 1, 45),
	}}
	req, err := supertask.JoinRequest(st, reweighted)
	if err == nil {
		_, err = sys.Submit(req)
	}
	if err != nil {
		d.f("addsuper: %v", err)
	}
	for _, t := range []*task.Task{
		task.MustNew("Y", 2, 9), task.MustNew("V", 1, 2), task.MustNew("W", 1, 3),
	} {
		if _, err := sys.Submit(admission.Join(t)); err != nil {
			d.f("addtask %v: %v", t, err)
		}
	}
	res := sys.Run(450)
	d.coreStats(res.Scheduler, sys.Name)
	d.f("component-misses=%d", len(res.ComponentMisses))
	for _, m := range res.ComponentMisses {
		d.f("  miss super=%s comp=%s job=%d deadline=%d", m.Supertask, m.Component, m.Job, m.Deadline)
	}
	for _, kv := range sortedCounts(res.Served) {
		d.f("served %s=%d", kv.k, kv.v)
	}
	for _, kv := range sortedCounts(res.Wasted) {
		d.f("wasted %s=%d", kv.k, kv.v)
	}
	return d.sb.String()
}

type kv struct {
	k string
	v int64
}

func sortedCounts(m map[string]int64) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

func dumpFaults(sc faults.Scenario, shed bool) string {
	var d dump
	out, err := runFaults(sc, shed)
	if err != nil {
		d.f("err=%v", err)
		return d.sb.String()
	}
	d.f("survivors=%d before=%d critical=%d noncritical=%d",
		out.Survivors, out.MissesBefore, out.CriticalMissesAfterSettle, out.NonCriticalMisses)
	for _, n := range out.Names() {
		ep := out.Reweighted[n]
		d.f("reweighted %s=%d/%d", n, ep[0], ep[1])
	}
	return d.sb.String()
}

func critTask(name string, e, p int64) *task.Task {
	t := task.MustNew(name, e, p)
	t.Critical = true
	return t
}

func TestGoldenEquivalence(t *testing.T) {
	overloadSc := faults.Scenario{
		M: 3, Fail: 1, FailAt: 90, Horizon: 2000, SettleSlack: 60,
		Tasks: task.Set{
			critTask("c1", 1, 3), critTask("c2", 1, 4),
			task.MustNew("n1", 2, 3), task.MustNew("n2", 1, 2), task.MustNew("n3", 1, 3),
		},
	}
	transparentSc := faults.Scenario{
		M: 4, Fail: 2, FailAt: 60, Horizon: 600, SettleSlack: 0,
		Tasks: task.Set{
			critTask("c1", 2, 3), task.MustNew("n1", 2, 3), task.MustNew("n2", 1, 3), task.MustNew("n3", 1, 3),
		},
	}
	cases := []struct {
		name string
		run  func() string
	}{
		{"core-pd2", func() string { return dumpCore(core.PD2, core.Options{}, 120) }},
		{"core-pd", func() string { return dumpCore(core.PD, core.Options{}, 120) }},
		{"core-pf", func() string { return dumpCore(core.PF, core.Options{}, 120) }},
		{"core-epdf", func() string { return dumpCore(core.EPDF, core.Options{}, 120) }},
		{"core-erfair", func() string { return dumpCore(core.PD2, core.Options{EarlyRelease: true}, 120) }},
		{"core-noaffinity", func() string { return dumpCore(core.PD2, core.Options{NoAffinity: true}, 120) }},
		{"core-dynamic", dumpCoreDynamic},
		{"edf-cbs", dumpEDF},
		{"rm-feasible", func() string {
			return dumpRM(task.Set{task.MustNew("A", 1, 4), task.MustNew("B", 1, 5), task.MustNew("C", 2, 10)}, 200)
		}},
		{"rm-overload", func() string {
			return dumpRM(task.Set{task.MustNew("A", 2, 4), task.MustNew("B", 2, 5), task.MustNew("C", 2, 10)}, 200)
		}},
		{"sim-global-edf", func() string { return dumpGlobal(sim.GlobalEDF) }},
		{"sim-global-rm", func() string { return dumpGlobal(sim.GlobalRM) }},
		{"sim-vq-aligned", func() string { return dumpQuanta(sim.Aligned) }},
		{"sim-vq-variable", func() string { return dumpQuanta(sim.Variable) }},
		{"wrr-burst", dumpWRR},
		{"supertask-fig5", func() string { return dumpSupertask(false) }},
		{"supertask-reweighted", func() string { return dumpSupertask(true) }},
		{"faults-transparent", func() string { return dumpFaults(transparentSc, true) }},
		{"faults-overload-shed", func() string { return dumpFaults(overloadSc, true) }},
		{"faults-overload-noshed", func() string { return dumpFaults(overloadSc, false) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run()
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output differs from pre-refactor golden %s\n%s", path, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(gl), len(wl))
}
