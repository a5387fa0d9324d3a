package experiments

import (
	"fmt"
	"strings"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/parallel"
	"pfair/internal/supertask"
	"pfair/internal/task"
	"pfair/internal/trace"
	"pfair/internal/verify"
)

// Fig5Result carries the supertask experiment's outcome.
type Fig5Result struct {
	// Trace is the two-processor PD² schedule over the first 18 slots,
	// in the style of Figure 5.
	Trace string
	// Misses are the component-level deadline misses without
	// reweighting (the paper's T misses at time 10).
	Misses []supertask.ComponentMiss
	// ReweightedMisses are the component misses after the
	// Holman–Anderson 1/p_min inflation (expected empty).
	ReweightedMisses []supertask.ComponentMiss
}

// Fig5 reproduces Figure 5: on two processors, tasks V (1/2), W (1/3),
// X (1/3), Y (2/9) plus supertask S = {T (1/5), U (1/45)} competing at
// 2/9. Without reweighting, component T misses at time 10; with S
// inflated to 19/45, all component deadlines are met.
func Fig5(horizon int64) Fig5Result { return Fig5Workers(horizon, 1) }

// Fig5Workers is Fig5 with its three independent simulations — the plain
// run, the reweighted run, and the trace render — fanned out over the
// worker pool. The result is identical for any worker count.
func Fig5Workers(horizon int64, workers int) Fig5Result {
	build := func(reweighted bool) (*supertask.System, error) {
		sys := supertask.NewSystem(2, core.PD2)
		for _, tk := range []*task.Task{
			task.MustNew("V", 1, 2), task.MustNew("W", 1, 3), task.MustNew("X", 1, 3),
		} {
			if _, err := sys.Submit(admission.Join(tk)); err != nil {
				return nil, err
			}
		}
		s := &supertask.Supertask{Name: "S", Components: task.Set{
			task.MustNew("T", 1, 5), task.MustNew("U", 1, 45),
		}}
		req, err := supertask.JoinRequest(s, reweighted)
		if err != nil {
			return nil, err
		}
		if _, err := sys.Submit(req); err != nil {
			return nil, err
		}
		if _, err := sys.Submit(admission.Join(task.MustNew("Y", 2, 9))); err != nil {
			return nil, err
		}
		return sys, nil
	}

	var res Fig5Result
	parallel.For(workers, 3, func(part int) {
		switch part {
		case 0:
			sys, err := build(false)
			if err != nil {
				//pfair:allowpanic static Figure 5 workload cannot fail to build; parallel.For propagates panics
				panic(err)
			}
			res.Misses = sys.Run(horizon).ComponentMisses
		case 1:
			sysRW, err := build(true)
			if err != nil {
				//pfair:allowpanic static Figure 5 workload cannot fail to build; parallel.For propagates panics
				panic(err)
			}
			res.ReweightedMisses = sysRW.Run(horizon).ComponentMisses
		case 2:
			// Render the schedule with a fresh recorder-driven run.
			res.Trace = fig5Trace()
		}
	})
	return res
}

// fig5Trace renders the unreweighted schedule's first 18 slots.
func fig5Trace() string {
	sched := core.NewScheduler(2, core.PD2, core.Options{})
	var rec verify.Recorder
	sched.OnSlot(rec.Record)
	for _, tk := range []*task.Task{
		task.MustNew("V", 1, 2), task.MustNew("W", 1, 3), task.MustNew("X", 1, 3),
		task.MustNew("S", 2, 9), task.MustNew("Y", 2, 9),
	} {
		if err := sched.Join(tk); err != nil {
			//pfair:allowpanic static Figure 5 task set always admits on two processors
			panic(err)
		}
	}
	sched.RunUntil(18)
	var b strings.Builder
	b.WriteString("Figure 5: PD² schedule (digits = processor), S = supertask{T:1/5, U:1/45} at weight 2/9\n")
	// Rows in the paper's order V, W, X, Y, S: S (id 3) joined before Y.
	b.WriteString(trace.Schedule(rec.Slots, 0, 18, []string{"V", "W", "X", "S", "Y"}, 0, 1, 2, 4, 3))
	fmt.Fprintf(&b, "S's quanta drive an internal EDF over T and U; T's job 2 needs one of S's quanta in [5,10).\n")
	return b.String()
}
