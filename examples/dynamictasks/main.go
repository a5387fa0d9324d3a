// Dynamictasks: the Section 5.2 virtual-reality scenario. A rendering
// task's weight tracks scene complexity, so it is reweighted repeatedly at
// runtime (modeled as leave-and-join under the safe departure rules of
// Section 2); meanwhile background tasks join and leave the system. Under
// partitioning every such event could force a full repartition; under PD²
// each event is a constant-time admission test, and no deadline is ever
// missed while Σ wt ≤ M.
//
// Every operation goes through one entry point: build a pfair.Request
// with Join/Leave/Reweight and hand it to Scheduler.Submit. The returned
// Decision says which operation was accepted for which task and the slot
// at which it takes effect: the current slot for a join, the task's safe
// departure slot for a leave or a reweight — and the same Request values
// would drive the EDF, RM, WRR, or supertask simulators unchanged.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pfair"
)

func run(w io.Writer) error {
	s := pfair.NewScheduler(2, pfair.PD2, pfair.Options{})
	// accepted counts the transactions Submit accepted; a refused one
	// ends the run with its error.
	accepted := 0

	// Initial scene: renderer at weight 2/5, physics at 1/3, audio 1/5.
	for _, t := range []*pfair.Task{
		pfair.MustNewTask("render", 2, 5),
		pfair.MustNewTask("physics", 1, 3),
		pfair.MustNewTask("audio", 1, 5),
	} {
		if _, err := s.Submit(pfair.Join(t)); err != nil {
			return fmt.Errorf("join %v: %w", t, err)
		}
		accepted++
	}

	// The runtime script: each entry is one Submit transaction,
	// submitted when the scheduler clock reaches its slot.
	script := []struct {
		at  int64
		why string
		req pfair.Request
	}{
		{100, "user enters a complex room", pfair.Reweight("render", 4, 5)},
		{300, "capture tool joins", pfair.Join(pfair.MustNewTask("capture", 1, 4))},
		{500, "scene simplifies", pfair.Reweight("render", 1, 5)},
		{700, "capture finishes", pfair.Leave("capture")},
		{800, "ML upscaler joins", pfair.Join(pfair.MustNewTask("upscale", 3, 4))},
	}

	const horizon = 1500
	next := 0
	for s.Now() < horizon {
		for next < len(script) && script[next].at == s.Now() {
			ev := script[next]
			d, err := s.Submit(ev.req)
			if err != nil {
				return fmt.Errorf("t=%d %s: %w", s.Now(), ev.why, err)
			}
			fmt.Fprintf(w, "t=%4d  %-28s %s\n", s.Now(), ev.why+":", d)
			accepted++
			next++
		}
		s.Step()
	}
	s.FinishMisses(horizon)

	fmt.Fprintf(w, "\nFinal tasks: %v\n", s.Tasks())
	fmt.Fprintf(w, "Total weight now: %s\n", s.TotalWeight())
	fmt.Fprintf(w, "Admission ledger: %d transactions, 0 rejected\n", accepted)
	st := s.Stats()
	fmt.Fprintf(w, "Over %d slots: %d allocations, %d misses.\n", horizon, st.Allocations, len(st.Misses))
	if len(st.Misses) != 0 {
		return fmt.Errorf("dynamic events caused misses: %+v", st.Misses[0])
	}
	fmt.Fprintln(w, "Every join, leave, and reweight was absorbed with zero deadline misses.")
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
