package rm

import (
	"runtime"
	"testing"

	"pfair/internal/edf"
	"pfair/internal/task"
)

// maxRunAllocs bounds the allocations of one steady-state Run, whatever
// its length: jobs come from the simulator's pool, timers and ready
// entries are persistent handles, and the horizon accounting reuses its
// buffers. The slack absorbs the runtime's own bookkeeping.
const maxRunAllocs = 8

// TestRunAllocsPerJob: the RM simulator allocates nothing per job in
// steady state — job records are pooled, and neither the engine nor the
// ready queue adds per-event garbage.
func TestRunAllocsPerJob(t *testing.T) {
	s := edf.NewRMSimulator()
	for _, tk := range []*task.Task{
		task.MustNew("a", 1, 4), task.MustNew("b", 1, 5), task.MustNew("c", 1, 10),
	} {
		if err := s.Add(edf.Config{Task: tk}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up fills the job pool and settles the engine binding.
	if err := s.Run(10_000); err != nil {
		t.Fatal(err)
	}
	jobs0 := s.Stats().Jobs

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.Run(100_000)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	jobs := st.Jobs - jobs0
	if jobs == 0 {
		t.Fatal("no jobs released in the measured window")
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > maxRunAllocs {
		t.Errorf("Run allocated %d times for %d jobs, want ≤ %d regardless of the job count", allocs, jobs, maxRunAllocs)
	}
	if n := len(st.Misses); n != 0 {
		t.Fatalf("RM-schedulable set missed %d deadlines", n)
	}
}
