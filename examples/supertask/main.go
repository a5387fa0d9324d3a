// Supertask: a walkthrough of Figure 5 and Section 5.5. Two component
// tasks that must not migrate (say, they talk to a device on one
// processor) are bundled into supertask S, which competes under PD² with
// their cumulative weight 2/9. S receives exactly its entitlement — and
// component T still misses a deadline at time 10, because the quanta
// arrive at the wrong instants. Inflating S's weight by 1/p_min (Holman &
// Anderson) fixes it.
package main

import (
	"fmt"
	"log"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/experiments"
	"pfair/internal/supertask"
	"pfair/internal/task"
)

func main() {
	res := experiments.Fig5(900)
	fmt.Print(res.Trace)
	fmt.Println()
	if len(res.Misses) == 0 {
		log.Fatal("expected the Figure 5 miss")
	}
	fmt.Printf("Without reweighting, %d component deadlines missed in 900 slots; the first:\n", len(res.Misses))
	m := res.Misses[0]
	fmt.Printf("  component %s, job %d, deadline %d — exactly the miss in Figure 5.\n\n", m.Component, m.Job, m.Deadline)

	st := &supertask.Supertask{Name: "S", Components: task.Set{
		task.MustNew("T", 1, 5), task.MustNew("U", 1, 45),
	}}
	w, _ := st.Weight()
	rw, _ := st.ReweightedWeight()
	fmt.Printf("S's cumulative weight: %s; reweighted by 1/p_min = 1/5 to %s.\n", w, rw)
	fmt.Printf("With reweighting: %d component misses in 900 slots.\n\n", len(res.ReweightedMisses))

	// Supertasking also spans the design space: a supertask per
	// processor with EDF inside is EDF partitioning; no supertasks is
	// pure Pfair. Show a mixed system: one pinned bundle + migrating
	// tasks.
	sys := supertask.NewSystem(2, core.PD2)
	req, err := supertask.JoinRequest(&supertask.Supertask{
		Name: "pinned-io",
		Components: task.Set{
			task.MustNew("nic-rx", 1, 4), task.MustNew("nic-tx", 1, 8), task.MustNew("disk", 1, 10),
		},
	}, true)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Submit(req); err != nil {
		log.Fatal(err)
	}
	for _, t := range []*task.Task{task.MustNew("worker-1", 2, 3), task.MustNew("worker-2", 1, 2)} {
		if _, err := sys.Submit(admission.Join(t)); err != nil {
			log.Fatal(err)
		}
	}
	out := sys.Run(4000)
	fmt.Printf("Mixed system (pinned I/O bundle + migrating workers), 4000 slots:\n")
	fmt.Printf("  component misses: %d, global misses: %d, bundle quanta served: %d (wasted: %d)\n",
		len(out.ComponentMisses), len(out.Scheduler.Misses), out.Served["pinned-io"], out.Wasted["pinned-io"])
	if len(out.ComponentMisses)+len(out.Scheduler.Misses) != 0 {
		log.Fatal("reweighted mixed system should be miss-free")
	}
}
