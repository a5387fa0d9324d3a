package trace

import (
	"strings"
	"testing"

	"pfair/internal/core"
	"pfair/internal/task"
	"pfair/internal/verify"
)

// TestWindowsFig1a renders the Figure 1(a) layout and spot-checks rows.
func TestWindowsFig1a(t *testing.T) {
	out, err := Windows(core.NewPattern(8, 11), 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 2 ruler lines + 8 subtask rows.
	if len(lines) != 10 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// T1 window [0,2).
	if want := "T1   |==         |"; lines[2] != want {
		t.Errorf("T1 row %q, want %q", lines[2], want)
	}
	// T3 window [2,5).
	if want := "T3   |  ===      |"; lines[4] != want {
		t.Errorf("T3 row %q, want %q", lines[4], want)
	}
	// T8 window [9,11).
	if want := "T8   |         ==|"; lines[9] != want {
		t.Errorf("T8 row %q, want %q", lines[9], want)
	}
}

// TestWindowsIS renders Figure 1(b): T5 one slot late shifts rows 5+.
func TestWindowsIS(t *testing.T) {
	off := func(i int64) int64 {
		if i >= 5 {
			return 1
		}
		return 0
	}
	out, err := WindowsIS(core.NewPattern(8, 11), 1, 8, off)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// T4 unshifted: [4,6); T5 shifted: [6,8) instead of [5,7).
	if !strings.Contains(lines[5], "    ==") {
		t.Errorf("T4 row %q", lines[5])
	}
	if want := "T5   |      ==    |"; lines[6] != want {
		t.Errorf("T5 row %q, want %q", lines[6], want)
	}
}

func TestWindowsRejectsBadRange(t *testing.T) {
	if _, err := Windows(core.NewPattern(1, 2), 3, 2); err == nil {
		t.Fatal("Windows accepted an inverted subtask range")
	}
	if _, err := Windows(core.NewPattern(1, 2), 0, 2); err == nil {
		t.Fatal("Windows accepted a zero first subtask")
	}
}

// TestRecorderRender draws a verify.Recorder schedule with Schedule.
func TestRecorderRender(t *testing.T) {
	s := core.NewScheduler(1, core.PD2, core.Options{})
	var rec verify.Recorder
	s.OnSlot(rec.Record)
	if err := s.Join(task.MustNew("T", 1, 2)); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(6)
	out := Schedule(rec.Slots, 0, 6, []string{"T"})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %v", lines)
	}
	// Weight-1/2 task on one processor: scheduled every other slot.
	if want := "T |0.0.0.|"; lines[2] != want {
		t.Errorf("row %q, want %q", lines[2], want)
	}
}

func TestRecorderExplicitOrderAndProcDigits(t *testing.T) {
	s := core.NewScheduler(2, core.PD2, core.Options{})
	var rec verify.Recorder
	s.OnSlot(rec.Record)
	for _, tk := range []*task.Task{task.MustNew("A", 1, 1), task.MustNew("B", 1, 1)} {
		if err := s.Join(tk); err != nil {
			t.Fatal(err)
		}
	}
	s.RunUntil(4)
	// C (id 2) never joined, so it never runs.
	out := Schedule(rec.Slots, 0, 4, []string{"A", "B", "C"}, 1, 0, 2)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines:\n%s", out)
	}
	if !strings.HasPrefix(lines[2], "B |") {
		t.Errorf("explicit order ignored: %q", lines[2])
	}
	// C never scheduled: all dots.
	if want := "C |....|"; lines[4] != want {
		t.Errorf("C row %q, want %q", lines[4], want)
	}
	// Weight-1 tasks stay on their processors: rows are constant digits.
	for _, row := range lines[2:4] {
		body := row[3 : len(row)-1]
		if strings.Contains(body, ".") {
			t.Errorf("weight-1 task idle: %q", row)
		}
	}
}
