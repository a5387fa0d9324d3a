package core_test

import (
	"fmt"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/task"
)

// ExamplePattern reproduces the paper's Figure 1(a) numbers for a task
// with weight 8/11.
func ExamplePattern() {
	pat := core.NewPattern(8, 11)
	for i := int64(1); i <= 3; i++ {
		fmt.Printf("T%d: window [%d,%d) b=%d D=%d\n",
			i, pat.Release(i), pat.Deadline(i), pat.BBit(i), pat.GroupDeadline(i))
	}
	// Output:
	// T1: window [0,2) b=1 D=4
	// T2: window [1,3) b=1 D=4
	// T3: window [2,5) b=1 D=8
}

// ExampleScheduler schedules the classic set no partitioning can handle:
// three weight-2/3 tasks on two processors.
func ExampleScheduler() {
	s := core.NewScheduler(2, core.PD2, core.Options{})
	for _, name := range []string{"A", "B", "C"} {
		if err := s.Join(task.MustNew(name, 2, 3)); err != nil {
			fmt.Println("join failed:", err)
			return
		}
	}
	s.RunUntil(300)
	s.FinishMisses(300)
	fmt.Println("misses:", len(s.Stats().Misses))
	fmt.Println("allocations:", s.Stats().Allocations)
	// Output:
	// misses: 0
	// allocations: 600
}

// ExampleScheduler_Submit shows a Section 5.2 dynamic weight change
// through Submit: the task leaves under the safe rule and rejoins with
// its new rate.
func ExampleScheduler_Submit() {
	s := core.NewScheduler(1, core.PD2, core.Options{})
	if err := s.Join(task.MustNew("render", 2, 4)); err != nil {
		fmt.Println(err)
		return
	}
	s.RunUntil(10)
	d, err := s.Submit(admission.Reweight("render", 1, 4))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("new weight effective at slot", d.EffectiveAt)
	s.RunUntil(100)
	s.FinishMisses(100)
	fmt.Println("misses:", len(s.Stats().Misses))
	// Output:
	// new weight effective at slot 11
	// misses: 0
}
