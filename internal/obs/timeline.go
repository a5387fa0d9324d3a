package obs

import (
	"fmt"
	"io"
)

// WriteTimeline writes the recorder's retained events as a
// human-readable slot timeline, one line per event, in emission order:
//
//	[   12] schedule   A#5 → P0
//	[   12] release    C#4
//	[   13] migration  B#3 P1 → P0
//	[   13] miss       D#2 (deadline 10)
//
// The slot column groups naturally because the schedulers emit events in
// slot order. Cold path; allocates freely.
func WriteTimeline(w io.Writer, rec *Recorder) error {
	if d := rec.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(ring wrapped: %d oldest events dropped)\n", d); err != nil {
			return err
		}
	}
	for _, e := range rec.Events() {
		var err error
		name := rec.TaskName(e.Task)
		switch e.Kind {
		case EvJoin:
			_, err = fmt.Fprintf(w, "[%6d] join       %s (%d/%d)\n", e.Slot, name, e.A, e.B)
		case EvLeave:
			_, err = fmt.Fprintf(w, "[%6d] leave      %s (allocated %d)\n", e.Slot, name, e.A)
		case EvRelease:
			_, err = fmt.Fprintf(w, "[%6d] release    %s#%d\n", e.Slot, name, e.A)
		case EvSchedule:
			_, err = fmt.Fprintf(w, "[%6d] schedule   %s#%d → P%d\n", e.Slot, name, e.A, e.Proc)
		case EvIdle:
			_, err = fmt.Fprintf(w, "[%6d] idle       P%d\n", e.Slot, e.Proc)
		case EvPreempt:
			_, err = fmt.Fprintf(w, "[%6d] preempt    %s#%d (was on P%d)\n", e.Slot, name, e.A, e.Proc)
		case EvMigrate:
			_, err = fmt.Fprintf(w, "[%6d] migration  %s#%d P%d → P%d\n", e.Slot, name, e.B, e.A, e.Proc)
		case EvMiss:
			_, err = fmt.Fprintf(w, "[%6d] miss       %s#%d (deadline %d)\n", e.Slot, name, e.A, e.B)
		case EvTieBreakB:
			_, err = fmt.Fprintf(w, "[%6d] tiebreak-b %s over %s (deadline %d)\n", e.Slot, name, rec.TaskName(int32(e.A)), e.B)
		case EvTieBreakGroup:
			_, err = fmt.Fprintf(w, "[%6d] tiebreak-g %s over %s (deadline %d)\n", e.Slot, name, rec.TaskName(int32(e.A)), e.B)
		case EvReweight:
			_, err = fmt.Fprintf(w, "[%6d] reweight   %s → %d/%d\n", e.Slot, name, e.A, e.B)
		default:
			_, err = fmt.Fprintf(w, "[%6d] %s task=%d proc=%d a=%d b=%d\n", e.Slot, e.Kind, e.Task, e.Proc, e.A, e.B)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
