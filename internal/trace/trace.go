// Package trace renders Pfair window layouts and schedules as ASCII
// diagrams in the style of the paper's Figures 1 and 5: one row per
// subtask (windows) or per task (schedules), one column per slot.
package trace

import (
	"fmt"
	"strings"

	"pfair/internal/core"
	"pfair/internal/verify"
)

// Windows renders the windows of subtasks first..last of a pattern, one
// row per subtask, with a slot ruler. offset shifts all windows (pass an
// IS offset function's values via WindowsIS for per-subtask shifts).
func Windows(pat *core.Pattern, first, last int64) (string, error) {
	return WindowsIS(pat, first, last, func(int64) int64 { return 0 })
}

// WindowsIS renders IS-shifted windows: subtask i's window moves right by
// offset(i). It returns an error unless 1 ≤ first ≤ last.
func WindowsIS(pat *core.Pattern, first, last int64, offset func(i int64) int64) (string, error) {
	if first < 1 || last < first {
		return "", fmt.Errorf("trace: invalid subtask range [%d, %d]", first, last)
	}
	end := pat.Deadline(last) + offset(last)
	var b strings.Builder
	writeRuler(&b, "      ", end)
	for i := first; i <= last; i++ {
		r := pat.Release(i) + offset(i)
		d := pat.Deadline(i) + offset(i)
		fmt.Fprintf(&b, "T%-3d |", i)
		for t := int64(0); t < end; t++ {
			switch {
			case t >= r && t < d:
				b.WriteByte('=')
			default:
				b.WriteByte(' ')
			}
		}
		b.WriteString("|\n")
	}
	return b.String(), nil
}

// Schedule draws slots [from, to) of a schedule recorded by
// verify.Recorder, one row per task and one column per slot: the digit of
// the processor that ran the task in that slot ('+' above 9), or '.'.
// labels[id] names the row of the task whose Assignment.Task is id. rows
// lists the ids to draw, top to bottom, each an index into labels; with
// none given, every labelled id is drawn in id order. A task that never
// ran gets a row of dots, and an assignment whose id has no label is not
// drawn.
func Schedule(slots []verify.Slot, from, to int64, labels []string, rows ...int) string {
	width := int(max(to-from, 0))
	cells := []byte(strings.Repeat(".", len(labels)*width))
	for _, sl := range slots {
		for _, a := range sl.Assigned {
			if sl.Time < from || sl.Time >= to || a.Task < 0 || a.Task >= len(labels) {
				continue
			}
			c := byte('0' + a.Proc%10)
			if a.Proc > 9 {
				c = '+'
			}
			cells[a.Task*width+int(sl.Time-from)] = c
		}
	}
	if len(rows) == 0 {
		rows = make([]int, len(labels))
		for id := range rows {
			rows[id] = id
		}
	}
	labelWidth := 0
	for _, id := range rows {
		labelWidth = max(labelWidth, len(labels[id]))
	}
	var b strings.Builder
	writeRuler(&b, strings.Repeat(" ", labelWidth+2), to-from)
	for _, id := range rows {
		fmt.Fprintf(&b, "%-*s |%s|\n", labelWidth, labels[id], cells[id*width:(id+1)*width])
	}
	return b.String()
}

// writeRuler prints a tens/units slot ruler after the given left margin.
func writeRuler(b *strings.Builder, margin string, width int64) {
	b.WriteString(margin)
	for t := int64(0); t < width; t++ {
		if t%10 == 0 {
			fmt.Fprintf(b, "%d", (t/10)%10)
		} else {
			b.WriteByte(' ')
		}
	}
	b.WriteByte('\n')
	b.WriteString(margin)
	for t := int64(0); t < width; t++ {
		fmt.Fprintf(b, "%d", t%10)
	}
	b.WriteByte('\n')
}
