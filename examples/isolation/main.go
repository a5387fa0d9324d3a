// Isolation: the Section 5.3 temporal-isolation story, told three ways.
//
// A network-receive handler is provisioned for 2 ms of work every 10 ms,
// but a packet flood makes every activation run 8 ms — the classic
// receive-livelock ingredient ("by using fair algorithms to schedule
// operating system activities, problems such as receive livelock can be
// ameliorated"). Three schedulers face the same flood:
//
//  1. Plain EDF: no isolation — the overrun steals time budgeted to the
//     application tasks, which miss en masse.
//  2. EDF + a constant-bandwidth server around the handler: the overrun is
//     pushed into the handler's own future bandwidth; applications are
//     safe, at the cost of extra server machinery (the paper: "the use of
//     such mechanisms increases scheduling overhead").
//  3. PD²: fairness IS the mechanism — the handler owns weight 2/10 and
//     can never execute above that rate, no matter what it demands.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"pfair"
	"pfair/internal/edf"
	"pfair/internal/task"
)

func run(w io.Writer) error {
	const horizon = 4000 // ms

	apps := []*task.Task{
		task.MustNew("audio", 3, 10),
		task.MustNew("control", 2, 5),
	}
	handler := task.MustNew("net-rx", 2, 10)
	flood := func(int64) int64 { return 8 } // every job wants 8 ms, not 2

	victimMisses := func(st edf.Stats) map[string]int {
		m := map[string]int{}
		for _, miss := range st.Misses {
			m[miss.Task]++
		}
		return m
	}

	// 1. Plain EDF.
	plain := edf.NewSimulator()
	if err := addAll(plain, edf.Config{Task: handler, ActualCost: flood}, apps); err != nil {
		return err
	}
	plain.Run(horizon)
	fmt.Fprintf(w, "EDF, no isolation:   misses per task = %v\n", victimMisses(plain.Stats()))

	// 2. EDF with a CBS around the handler.
	served := edf.NewSimulator()
	if err := addAll(served, edf.Config{
		Task: handler, ActualCost: flood,
		Server: &edf.CBS{Budget: 2, Period: 10},
	}, apps); err != nil {
		return err
	}
	served.Run(horizon)
	st := served.Stats()
	fmt.Fprintf(w, "EDF + CBS:           misses per task = %v (handler deadline postponements: %d)\n",
		victimMisses(st), st.Postponements)

	// 3. PD²: the handler is admitted at weight 2/10 and structurally
	// cannot exceed it; the flood shows up as the handler's own backlog,
	// never as anyone else's miss.
	s := pfair.NewScheduler(1, pfair.PD2, pfair.Options{})
	for _, t := range append([]*task.Task{handler}, apps...) {
		if err := s.Join(t); err != nil {
			return err
		}
	}
	// The handler joined first, so its task id is 0.
	const handlerID = 0
	handlerQuanta := int64(0)
	s.OnSlot(func(tt int64, assigned []pfair.Assignment) {
		for _, a := range assigned {
			if a.Task == handlerID {
				handlerQuanta++
			}
		}
	})
	s.RunUntil(horizon)
	s.FinishMisses(horizon)
	fmt.Fprintf(w, "PD²:                 misses = %d; net-rx received %d/%d ms — exactly its 2/10 share\n",
		len(s.Stats().Misses), handlerQuanta, horizon)

	if len(s.Stats().Misses) != 0 {
		return errors.New("PD² isolation failed")
	}
	fmt.Fprintln(w, "\nFairness provides temporal isolation by construction; EDF needs an")
	fmt.Fprintln(w, "added mechanism (CBS) to get the same guarantee.")
	return nil
}

// addAll adds the handler's configuration, then each application task.
func addAll(s *edf.Simulator, handler edf.Config, apps []*task.Task) error {
	if err := s.Add(handler); err != nil {
		return err
	}
	for _, a := range apps {
		if err := s.Add(edf.Config{Task: a}); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
