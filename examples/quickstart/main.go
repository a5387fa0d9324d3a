// Quickstart: schedule the paper's motivating example — three tasks, each
// with cost 2 and period 3, on two processors. No partitioning can
// schedule this set (each processor can hold at most one weight-2/3 task),
// but PD² schedules it with zero misses, because Σ wt = 2 ≤ M is the only
// condition Pfair scheduling needs.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"pfair"
	"pfair/internal/partition"
	"pfair/internal/trace"
	"pfair/internal/verify"
)

func run(w io.Writer) error {
	set := pfair.Set{
		pfair.MustNewTask("A", 2, 3),
		pfair.MustNewTask("B", 2, 3),
		pfair.MustNewTask("C", 2, 3),
	}

	// Partitioning fails: even the exact bin-packer needs 3 processors.
	exact, _ := partition.MinProcessorsExact(set, partition.EDFTest)
	fmt.Fprintf(w, "Total weight: %s → %d processors suffice for Pfair scheduling.\n",
		set.TotalWeight(), set.MinProcessors())
	fmt.Fprintf(w, "Exact partitioning needs %d processors — partitioning is inherently suboptimal.\n\n", exact)

	// PD² on two processors.
	s := pfair.NewScheduler(2, pfair.PD2, pfair.Options{})
	var rec verify.Recorder
	s.OnSlot(rec.Record)
	for _, t := range set {
		if err := s.Join(t); err != nil {
			return fmt.Errorf("admitting %v: %w", t, err)
		}
	}
	const horizon = 3000
	s.RunUntil(horizon)
	s.FinishMisses(horizon)

	fmt.Fprintln(w, "PD² schedule, first four hyperperiods (digits = processor):")
	// The set joined in order, so row i is task id i.
	fmt.Fprint(w, trace.Schedule(rec.Slots, 0, 12, []string{"A", "B", "C"}))

	st := s.Stats()
	fmt.Fprintf(w, "\nOver %d slots: %d allocations, %d context switches, %d migrations, %d preemptions, %d misses.\n",
		horizon, st.Allocations, st.ContextSwitches, st.Migrations, st.Preemptions, len(st.Misses))

	lagA, _ := s.Lag("A")
	fmt.Fprintf(w, "Exact lag of A at t=%d: %s (the Pfair invariant keeps every lag in (−1, 1)).\n",
		horizon, lagA)
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
