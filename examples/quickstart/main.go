// Quickstart: schedule the paper's motivating example — three tasks, each
// with cost 2 and period 3, on two processors. No partitioning can
// schedule this set (each processor can hold at most one weight-2/3 task),
// but PD² schedules it with zero misses, because Σ wt = 2 ≤ M is the only
// condition Pfair scheduling needs.
package main

import (
	"fmt"
	"log"

	"pfair"
	"pfair/internal/partition"
	"pfair/internal/trace"
	"pfair/internal/verify"
)

func main() {
	set := pfair.Set{
		pfair.MustNewTask("A", 2, 3),
		pfair.MustNewTask("B", 2, 3),
		pfair.MustNewTask("C", 2, 3),
	}

	// Partitioning fails: even the exact bin-packer needs 3 processors.
	exact, _ := partition.MinProcessorsExact(set, partition.EDFTest)
	fmt.Printf("Total weight: %s → %d processors suffice for Pfair scheduling.\n",
		set.TotalWeight(), set.MinProcessors())
	fmt.Printf("Exact partitioning needs %d processors — partitioning is inherently suboptimal.\n\n", exact)

	// PD² on two processors.
	s := pfair.NewScheduler(2, pfair.PD2, pfair.Options{})
	var rec verify.Recorder
	s.OnSlot(rec.Record)
	for _, t := range set {
		if err := s.Join(t); err != nil {
			log.Fatalf("admitting %v: %v", t, err)
		}
	}
	const horizon = 3000
	s.RunUntil(horizon)
	s.FinishMisses(horizon)

	fmt.Println("PD² schedule, first four hyperperiods (digits = processor):")
	fmt.Print(trace.Schedule(rec.Slots, 0, 12, "A", "B", "C"))

	st := s.Stats()
	fmt.Printf("\nOver %d slots: %d allocations, %d context switches, %d migrations, %d preemptions, %d misses.\n",
		horizon, st.Allocations, st.ContextSwitches, st.Migrations, st.Preemptions, len(st.Misses))

	lagA, _ := s.Lag("A")
	fmt.Printf("Exact lag of A at t=%d: %s (the Pfair invariant keeps every lag in (−1, 1)).\n",
		horizon, lagA)
}
