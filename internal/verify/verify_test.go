package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pfair/internal/core"
	"pfair/internal/rational"
	"pfair/internal/task"
)

func runAndCheck(t *testing.T, set task.Set, m int, horizon int64, opts Options) []error {
	t.Helper()
	s := core.NewScheduler(m, core.PD2, core.Options{})
	var rec Recorder
	s.OnSlot(rec.Record)
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join %v: %v", tk, err)
		}
	}
	s.RunUntil(horizon)
	opts.Processors = m
	opts.Horizon = horizon
	return Check(set, rec.Slots, opts)
}

// TestValidSchedulePasses: real PD² schedules pass every check.
func TestValidSchedulePasses(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		m := 1 + r.Intn(3)
		var set task.Set
		budget := rational.NewAcc()
		for i := 0; i < 6; i++ {
			p := int64(2 + r.Intn(10))
			e := int64(1 + r.Intn(int(p)))
			w := rational.New(e, p)
			if budget.Clone().Add(w).CmpInt(int64(m)) > 0 {
				continue
			}
			budget.Add(w)
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, p))
		}
		if len(set) == 0 {
			continue
		}
		if errs := runAndCheck(t, set, m, 2000, Options{}); len(errs) != 0 {
			t.Fatalf("trial %d: valid schedule rejected: %v", trial, errs[0])
		}
	}
}

// corruptionBase is the valid trace every corruption starts from: PD²
// on a three-task set over two processors for 60 slots.
func corruptionBase(t testing.TB) (task.Set, []Slot, Options) {
	t.Helper()
	set := task.Set{task.MustNew("A", 2, 3), task.MustNew("B", 1, 3), task.MustNew("C", 1, 2)}
	s := core.NewScheduler(2, core.PD2, core.Options{})
	var rec Recorder
	s.OnSlot(rec.Record)
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatal(err)
		}
	}
	const horizon = 60
	s.RunUntil(horizon)
	return set, rec.Slots, Options{Processors: 2, Horizon: horizon}
}

// cloneSlots deep-copies a trace so a corruption cannot reach the
// original.
func cloneSlots(base []Slot) []Slot {
	out := make([]Slot, len(base))
	for i, sl := range base {
		cp := make([]core.Assignment, len(sl.Assigned))
		copy(cp, sl.Assigned)
		out[i] = Slot{Time: sl.Time, Assigned: cp}
	}
	return out
}

// corruptions are named mutations of a valid trace, each of which the
// validator must object to.
var corruptions = []struct {
	name   string
	mutate func([]Slot) []Slot
}{
	{"drop an allocation", func(sl []Slot) []Slot {
		for i := range sl {
			if len(sl[i].Assigned) > 0 {
				sl[i].Assigned = sl[i].Assigned[1:]
				return sl
			}
		}
		return sl
	}},
	{"duplicate a processor", func(sl []Slot) []Slot {
		for i := range sl {
			if len(sl[i].Assigned) >= 2 {
				sl[i].Assigned[1].Proc = sl[i].Assigned[0].Proc
				return sl
			}
		}
		return sl
	}},
	{"run a task in parallel", func(sl []Slot) []Slot {
		for i := range sl {
			if len(sl[i].Assigned) >= 2 {
				sl[i].Assigned[1].Task = sl[i].Assigned[0].Task
				sl[i].Assigned[1].Subtask = sl[i].Assigned[0].Subtask + 1
				return sl
			}
		}
		return sl
	}},
	{"skip a subtask", func(sl []Slot) []Slot {
		sl[0].Assigned[0].Subtask += 5
		return sl
	}},
	{"out-of-range processor", func(sl []Slot) []Slot {
		sl[0].Assigned[0].Proc = 9
		return sl
	}},
	{"unknown task", func(sl []Slot) []Slot {
		sl[0].Assigned[0].Task = ghost
		return sl
	}},
	{"non-increasing time", func(sl []Slot) []Slot {
		if len(sl) > 1 {
			sl[1].Time = sl[0].Time
		}
		return sl
	}},
}

// TestCorruptionsDetected applies each named mutation to a valid trace
// and expects the validator to object.
func TestCorruptionsDetected(t *testing.T) {
	set, base, opts := corruptionBase(t)
	for _, c := range corruptions {
		if errs := Check(set, c.mutate(cloneSlots(base)), opts); len(errs) == 0 {
			t.Errorf("%s: validator accepted the corrupted trace", c.name)
		}
	}
}

// TestLagViolationDetected: starving a task trips the Pfairness check even
// when every individual assignment looks plausible.
func TestLagViolationDetected(t *testing.T) {
	set := task.Set{task.MustNew("A", 1, 2)}
	// A receives nothing for 4 slots: lag reaches 2.
	slots := []Slot{
		{Time: 0}, {Time: 1}, {Time: 2}, {Time: 3},
	}
	errs := Check(set, slots, Options{Processors: 1, Horizon: 4})
	if len(errs) == 0 {
		t.Fatal("starvation passed the lag check")
	}
}

// TestCompletionCheck: a trace that simply ends early is caught by the
// horizon completion check.
func TestCompletionCheck(t *testing.T) {
	set := task.Set{task.MustNew("A", 1, 2)}
	slots := []Slot{{Time: 0, Assigned: []core.Assignment{at(0, idA, 1)}}}
	errs := Check(set, slots, Options{Processors: 1, Horizon: 10, SkipLag: true})
	if len(errs) == 0 {
		t.Fatal("missing subtasks passed the completion check")
	}
	// With AllowTardy (overload semantics) the same trace passes.
	if errs := Check(set, slots, Options{Processors: 1, Horizon: 10, SkipLag: true, AllowTardy: true}); len(errs) != 0 {
		t.Fatalf("tardy-allowed check failed: %v", errs[0])
	}
}

// TestOffsetsShiftWindows: IS traces validate against shifted windows.
func TestOffsetsShiftWindows(t *testing.T) {
	set := task.Set{task.MustNew("A", 1, 2)}
	// Subtask 2's window shifts by 3: [2,4) → [5,7).
	off := []func(int64) int64{
		func(i int64) int64 {
			if i >= 2 {
				return 3
			}
			return 0
		},
	}
	slots := []Slot{
		{Time: 0, Assigned: []core.Assignment{at(0, idA, 1)}},
		{Time: 5, Assigned: []core.Assignment{at(0, idA, 2)}},
	}
	errs := Check(set, slots, Options{Processors: 1, Horizon: 6, Offsets: off, SkipLag: true})
	if len(errs) != 0 {
		t.Fatalf("shifted schedule rejected: %v", errs[0])
	}
	// Without the offsets the same trace violates subtask 2's window.
	errs = Check(set, slots, Options{Processors: 1, Horizon: 6, SkipLag: true})
	if len(errs) == 0 {
		t.Fatal("unshifted check accepted an out-of-window run")
	}
}

// TestAllAlgorithmsCrossValidated runs PD, PF, and ERfair-PD² schedules
// through the independent validator (ERfair and tardy traces relax the
// window/lag checks that do not define them).
func TestAllAlgorithmsCrossValidated(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 6; trial++ {
		m := 1 + r.Intn(3)
		var set task.Set
		budget := rational.NewAcc()
		for i := 0; i < 6; i++ {
			p := int64(2 + r.Intn(10))
			e := int64(1 + r.Intn(int(p)))
			w := rational.New(e, p)
			if budget.Clone().Add(w).CmpInt(int64(m)) > 0 {
				continue
			}
			budget.Add(w)
			set = append(set, task.MustNew(fmt.Sprintf("T%d", i), e, p))
		}
		if len(set) == 0 {
			continue
		}
		for _, alg := range []core.Algorithm{core.PD, core.PF} {
			s := core.NewScheduler(m, alg, core.Options{})
			var rec Recorder
			s.OnSlot(rec.Record)
			for _, tk := range set {
				if err := s.Join(tk); err != nil {
					t.Fatal(err)
				}
			}
			s.RunUntil(1500)
			if errs := Check(set, rec.Slots, Options{Processors: m, Horizon: 1500}); len(errs) != 0 {
				t.Fatalf("trial %d %v: %v", trial, alg, errs[0])
			}
		}
		// ERfair: windows and Equation (1) lags do not apply (subtasks
		// legitimately run before their pseudo-releases), but structure,
		// capacity, and sequence still must.
		s := core.NewScheduler(m, core.PD2, core.Options{EarlyRelease: true})
		var rec Recorder
		s.OnSlot(rec.Record)
		for _, tk := range set {
			if err := s.Join(tk); err != nil {
				t.Fatal(err)
			}
		}
		s.RunUntil(1500)
		if errs := Check(set, rec.Slots, Options{Processors: m, SkipLag: true, AllowTardy: true}); len(errs) != 0 {
			t.Fatalf("trial %d ERfair: %v", trial, errs[0])
		}
	}
}

// TestLagCheckedInTraceGaps: idle slots that were never delivered to the
// Recorder must still get their lag checked. Task A(1,2) runs at slot 0
// and then the trace jumps to slot 9: by slot 4 its lag exceeds 1, which
// the old recorded-slots-only walk silently skipped.
func TestLagCheckedInTraceGaps(t *testing.T) {
	set := task.Set{task.MustNew("A", 1, 2)}
	slots := []Slot{
		{Time: 0, Assigned: []core.Assignment{at(0, idA, 1)}},
		{Time: 9, Assigned: []core.Assignment{at(0, idA, 2)}},
	}
	errs := Check(set, slots, Options{Processors: 1, Horizon: 10, AllowTardy: true})
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "lag") {
			found = true
		}
	}
	if !found {
		t.Fatalf("gap starvation passed the lag check: %v", errs)
	}

	// Trailing gap: the trace simply stops while the horizon continues.
	head := slots[:1]
	errs = Check(set, head, Options{Processors: 1, Horizon: 10, AllowTardy: true})
	found = false
	for _, e := range errs {
		if strings.Contains(e.Error(), "lag") {
			found = true
		}
	}
	if !found {
		t.Fatalf("trailing starvation passed the lag check: %v", errs)
	}
}

// TestSequenceMismatchReportedOnce: one skipped subtask must produce one
// sequence error, not a cascade that buries the root cause on every later
// slot.
func TestSequenceMismatchReportedOnce(t *testing.T) {
	set := task.Set{task.MustNew("A", 1, 2)}
	var slots []Slot
	for i := int64(0); i < 20; i++ {
		sub := i + 1
		if i >= 3 {
			sub = i + 2 // subtask 4 skipped: 1,2,3,5,6,…
		}
		slots = append(slots, Slot{Time: 2 * i, Assigned: []core.Assignment{at(0, idA, sub)}})
	}
	errs := Check(set, slots, Options{Processors: 1, SkipLag: true, AllowTardy: true})
	seq := 0
	for _, e := range errs {
		if strings.Contains(e.Error(), "expected") {
			seq++
		}
	}
	if seq != 1 {
		t.Fatalf("got %d sequence errors, want exactly 1: %v", seq, errs)
	}
}

// TestErrorFlood is bounded: a fully-starved long trace reports at most
// maxErrors violations.
func TestErrorFloodBounded(t *testing.T) {
	set := task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 1, 2)}
	errs := Check(set, nil, Options{Processors: 1, Horizon: 100000})
	if len(errs) == 0 || len(errs) > maxErrors {
		t.Fatalf("got %d errors, want within (0, %d]", len(errs), maxErrors)
	}
}

// recordedRun returns the trace of PD² on a full-utilization set (Σwt = 2
// on two processors) over the given number of slots.
func recordedRun(tb testing.TB, slots int64) (task.Set, []Slot) {
	tb.Helper()
	set := task.Set{task.MustNew("A", 2, 3), task.MustNew("B", 1, 3), task.MustNew("C", 1, 2), task.MustNew("D", 3, 10), task.MustNew("E", 1, 5)}
	s := core.NewScheduler(2, core.PD2, core.Options{})
	var rec Recorder
	s.OnSlot(rec.Record)
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			tb.Fatal(err)
		}
	}
	s.RunUntil(slots)
	return set, rec.Slots
}

// TestRecordAllocsAmortized pins Record's allocations: copying a
// 20 000-slot PD² run costs at most one allocation per 1000 slots, so
// recording does not feed the collector per slot.
func TestRecordAllocsAmortized(t *testing.T) {
	const n = 20000
	_, slots := recordedRun(t, n)
	if len(slots) != n {
		t.Fatalf("recorded %d slots, want %d", len(slots), n)
	}
	allocs := testing.AllocsPerRun(3, func() {
		var r Recorder
		for _, s := range slots {
			r.Record(s.Time, s.Assigned)
		}
	})
	t.Logf("%v allocations for %d slots", allocs, n)
	if allocs > n/1000 {
		t.Fatalf("Record made %v allocations over %d slots, want ≤ %d", allocs, n, n/1000)
	}
}

// TestRecordSlotsIndependent: slots share chunk storage, but appending
// to one slot's assignments must not write into the next slot's, and the
// recorder must copy rather than alias the caller's slice.
func TestRecordSlotsIndependent(t *testing.T) {
	var r Recorder
	buf := []core.Assignment{at(0, idA, 1), at(1, idB, 1)}
	r.Record(0, buf)
	buf[0].Task = ghost
	r.Record(1, []core.Assignment{at(0, idC, 1)})
	r.Record(2, nil)
	_ = append(r.Slots[0].Assigned, at(2, ghost, 9))
	want := []Slot{
		{Time: 0, Assigned: []core.Assignment{at(0, idA, 1), at(1, idB, 1)}},
		{Time: 1, Assigned: []core.Assignment{at(0, idC, 1)}},
		{Time: 2, Assigned: []core.Assignment{}},
	}
	if !reflect.DeepEqual(r.Slots, want) {
		t.Fatalf("recorded %v, want %v", r.Slots, want)
	}
}

// TestRecorderResetReuses: a reset recorder records into the storage it
// already has, so once that storage has grown to fit a run, recording
// the run again allocates nothing and yields the same slots.
func TestRecorderResetReuses(t *testing.T) {
	_, slots := recordedRun(t, 720)
	var r Recorder
	record := func() {
		r.Reset()
		for _, s := range slots {
			r.Record(s.Time, s.Assigned)
		}
	}
	record()
	record()
	if allocs := testing.AllocsPerRun(5, record); allocs != 0 {
		t.Errorf("re-recording a %d-slot run made %v allocations, want 0", len(slots), allocs)
	}
	if !reflect.DeepEqual(r.Slots, slots) {
		t.Errorf("re-recorded slots differ from the run")
	}
	r.Reset()
	r.Record(0, nil)
	if want := []Slot{{Time: 0, Assigned: []core.Assignment{}}}; !reflect.DeepEqual(r.Slots, want) {
		t.Errorf("after Reset recorded %v, want %v", r.Slots, want)
	}
}

// BenchmarkCheck measures Check on a full-utilization PD² trace with
// every check on, lag included.
func BenchmarkCheck(b *testing.B) {
	const horizon = 720
	set, slots := recordedRun(b, horizon)
	opts := Options{Processors: 2, Horizon: horizon}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errs := Check(set, slots, opts); len(errs) != 0 {
			b.Fatal(errs[0])
		}
	}
}

// TestSubtaskBelowOneReported: a recorded subtask index below 1 has no
// window. With windows checked it is an error on every such entry, not an
// index-out-of-range panic in Pattern.Release; with tardiness allowed only
// the sequence check sees it.
func TestSubtaskBelowOneReported(t *testing.T) {
	set := task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 1, 2)}
	for _, sub := range []int64{0, -3} {
		slots := []Slot{
			{Time: 0, Assigned: []core.Assignment{at(0, idA, sub), at(1, idB, 1)}},
			{Time: 1, Assigned: []core.Assignment{at(0, idA, sub)}},
		}
		for _, tardy := range []bool{false, true} {
			errs := Check(set, slots, Options{Processors: 2, Horizon: 2, SkipLag: true, AllowTardy: tardy})
			var windows, seq int
			for _, e := range errs {
				switch msg := e.Error(); {
				case strings.Contains(msg, fmt.Sprintf("subtask A/%d has no window (subtasks start at 1)", sub)):
					windows++
				case strings.Contains(msg, fmt.Sprintf("ran subtask %d, expected 1", sub)):
					seq++
				default:
					t.Errorf("subtask %d, AllowTardy %v: unexpected error %q", sub, tardy, msg)
				}
			}
			wantWindows := 2
			if tardy {
				wantWindows = 0
			}
			if windows != wantWindows || seq != 1 {
				t.Errorf("subtask %d, AllowTardy %v: %d window errors (want %d), %d sequence errors (want 1): %v",
					sub, tardy, windows, wantWindows, seq, errs)
			}
		}
	}
}

// TestUnknownTaskIDs: an id outside [0, len(set)) — negative, equal to
// len(set), or any id against an empty set — is reported as an unknown
// task, without indexing the set out of range.
func TestUnknownTaskIDs(t *testing.T) {
	set := task.Set{task.MustNew("A", 1, 2), task.MustNew("B", 1, 2)}
	for _, tc := range []struct {
		set task.Set
		id  int
	}{
		{set, -1},
		{set, -7},
		{set, len(set)},
		{nil, 0},
		{nil, -1},
		{task.Set{}, 3},
	} {
		slots := []Slot{{Time: 0, Assigned: []core.Assignment{at(0, tc.id, 1)}}}
		for _, o := range optionVariants(Options{Processors: 1, Horizon: 2, Offsets: []func(int64) int64{nil}}) {
			errs := Check(tc.set, slots, o)
			want := fmt.Sprintf("slot 0: unknown task id %d", tc.id)
			found := false
			for _, e := range errs {
				found = found || e.Error() == want
			}
			if !found {
				t.Errorf("set of %d, id %d, %+v: no %q in %v", len(tc.set), tc.id, o, want, errs)
			}
		}
	}
}
