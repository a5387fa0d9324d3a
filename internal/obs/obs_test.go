package obs

import (
	"strings"
	"testing"
)

func TestRecorderRoundsCapacity(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultRingCapacity},
		{-5, DefaultRingCapacity},
		{1, 1},
		{3, 4},
		{1024, 1024},
		{1025, 2048},
	} {
		if got := len(NewRecorder(tc.in).buf); got != tc.want {
			t.Errorf("NewRecorder(%d) ring holds %d events, want %d", tc.in, got, tc.want)
		}
	}
}

func TestRecorderOrderAndWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := int64(0); i < 3; i++ {
		r.Emit(Event{Slot: i, Kind: EvSchedule})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Slot != int64(i) {
			t.Errorf("event %d has slot %d", i, e.Slot)
		}
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d before wrap", r.Dropped())
	}

	// Overflow: ring of 4 sees 10 events, keeps the last 4.
	for i := int64(3); i < 10; i++ {
		r.Emit(Event{Slot: i, Kind: EvSchedule})
	}
	evs = r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events after wrap, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.Slot != want {
			t.Errorf("event %d has slot %d, want %d (oldest first)", i, e.Slot, want)
		}
	}
	if r.Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
}

// TestEmitZeroAllocs pins the recorder's own hot-path contract: Emit
// must not allocate, even across ring wrap-around.
func TestEmitZeroAllocs(t *testing.T) {
	r := NewRecorder(1024)
	slot := int64(0)
	allocs := testing.AllocsPerRun(5000, func() {
		r.Emit(Event{Slot: slot, Kind: EvSchedule, Task: 1, Proc: 0, A: slot})
		slot++
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %v/op, want 0", allocs)
	}
}

func TestTaskNames(t *testing.T) {
	r := NewRecorder(8)
	r.RegisterTask(2, "video")
	r.RegisterTask(0, "audio")
	r.RegisterTask(-1, "ignored")
	if got := r.TaskName(2); got != "video" {
		t.Errorf("TaskName(2) = %q", got)
	}
	if got := r.TaskName(0); got != "audio" {
		t.Errorf("TaskName(0) = %q", got)
	}
	if got := r.TaskName(1); got != "task#1" {
		t.Errorf("TaskName(1) = %q, want placeholder", got)
	}
	if got := r.TaskName(-1); got != "" {
		t.Errorf("TaskName(-1) = %q, want empty", got)
	}
	ids := r.TaskIDs()
	if len(ids) != 3 || ids[0] != 0 || ids[2] != 2 {
		t.Errorf("TaskIDs = %v", ids)
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		if s := k.String(); s == "" || s == "unknown" {
			t.Errorf("EventKind(%d) has no name", k)
		}
	}
	if EventKind(200).String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
}

func TestItoa(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want string
	}{{0, "0"}, {7, "7"}, {-3, "-3"}, {1234567, "1234567"}} {
		if got := itoa(tc.v); got != tc.want {
			t.Errorf("itoa(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestTimeline(t *testing.T) {
	r := NewRecorder(64)
	r.RegisterTask(0, "A")
	r.RegisterTask(1, "B")
	r.Emit(Event{Slot: 0, Kind: EvJoin, Task: 0, Proc: -1, A: 2, B: 3})
	r.Emit(Event{Slot: 0, Kind: EvRelease, Task: 0, Proc: -1, A: 1})
	r.Emit(Event{Slot: 0, Kind: EvSchedule, Task: 0, Proc: 0, A: 1})
	r.Emit(Event{Slot: 1, Kind: EvMigrate, Task: 0, Proc: 1, A: 0, B: 2})
	r.Emit(Event{Slot: 1, Kind: EvMiss, Task: 1, Proc: -1, A: 3, B: 1})
	r.Emit(Event{Slot: 1, Kind: EvTieBreakB, Task: 0, Proc: -1, A: 1, B: 4})
	r.Emit(Event{Slot: 2, Kind: EvIdle, Task: -1, Proc: 1})
	r.Emit(Event{Slot: 3, Kind: EvLeave, Task: 1, Proc: -1, A: 9})
	r.Emit(Event{Slot: 3, Kind: EvPreempt, Task: 0, Proc: 0, A: 4})
	r.Emit(Event{Slot: 3, Kind: EvTieBreakGroup, Task: 1, Proc: -1, A: 0, B: 6})

	var b strings.Builder
	if err := WriteTimeline(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"join       A (2/3)",
		"release    A#1",
		"schedule   A#1 → P0",
		"migration  A#2 P0 → P1",
		"miss       B#3 (deadline 1)",
		"tiebreak-b A over B (deadline 4)",
		"idle       P1",
		"leave      B (allocated 9)",
		"preempt    A#4 (was on P0)",
		"tiebreak-g B over A (deadline 6)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestTimelineReportsDrop(t *testing.T) {
	r := NewRecorder(2)
	for i := int64(0); i < 5; i++ {
		r.Emit(Event{Slot: i, Kind: EvIdle, Task: -1})
	}
	var b strings.Builder
	if err := WriteTimeline(&b, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ring wrapped: 3 oldest events dropped") {
		t.Errorf("missing drop notice:\n%s", b.String())
	}
}
