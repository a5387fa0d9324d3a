package edf

import (
	"runtime"
	"testing"

	"pfair/internal/task"
)

// maxRunAllocs bounds the allocations of one steady-state Run, whatever
// its length: jobs come from the simulator's pool, timers and ready
// entries are persistent handles, and the horizon accounting reuses its
// buffers. The slack absorbs the runtime's own bookkeeping.
const maxRunAllocs = 8

// runAllocs warms s up, stepping the engine and calling observe after
// each step, then returns the allocations and released jobs of one long
// Run that continues it.
func runAllocs(t *testing.T, s *Simulator, observe func()) (allocs uint64, jobs int64) {
	t.Helper()
	// Warm-up fills the job pool and settles slice capacities and the
	// engine binding.
	for s.eng.Now() < 10_000 {
		s.eng.Step()
		observe()
	}
	if err := s.Run(10_000); err != nil {
		t.Fatal(err)
	}
	jobs0 := s.stats.Jobs

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.Run(100_000)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	jobs = s.stats.Jobs - jobs0
	if jobs == 0 {
		t.Fatal("no jobs released in the measured window")
	}
	return after.Mallocs - before.Mallocs, jobs
}

// TestRunAllocsPerJob: the simulator allocates nothing per job in steady
// state under either rule — job records are pooled, and neither the
// engine nor the ready queue adds per-event garbage.
func TestRunAllocsPerJob(t *testing.T) {
	for _, isRM := range rules {
		s := newSimulator(isRM, nil)
		mustAdd(t, s,
			Config{Task: task.MustNew("a", 1, 4)},
			Config{Task: task.MustNew("b", 1, 5)},
			Config{Task: task.MustNew("c", 2, 10)},
		)
		allocs, jobs := runAllocs(t, s, func() {})
		if allocs > maxRunAllocs {
			t.Errorf("rm=%v: Run allocated %d times for %d jobs, want ≤ %d regardless of the job count", isRM, allocs, jobs, maxRunAllocs)
		}
		if n := len(s.stats.Misses); n != 0 {
			t.Fatalf("rm=%v: schedulable set missed %d deadlines", isRM, n)
		}
	}
}

// TestRunAllocsPerJobCBS: a served task whose jobs overrun postpones its
// server deadline and, when the processor is busy, queues later jobs in
// the server backlog; it still allocates nothing per job, because the
// backlog reuses its backing array. "golden" is the edf-cbs golden
// scenario; "backlog" loads the processor so the backlog actually forms.
func TestRunAllocsPerJobCBS(t *testing.T) {
	cases := []struct {
		name    string
		a, c    *task.Task
		overrun func(job int64) int64
		backlog bool
	}{
		{"golden", task.MustNew("A", 2, 10), task.MustNew("C", 1, 5), func(job int64) int64 {
			if job%2 == 0 {
				return 9
			}
			return 3
		}, false},
		{"backlog", task.MustNew("A", 4, 10), task.MustNew("C", 2, 5), func(job int64) int64 {
			if job%4 == 0 {
				return 9
			}
			return 1
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSimulator()
			mustAdd(t, s,
				Config{Task: tc.a},
				Config{Task: task.MustNew("B", 3, 15), ActualCost: tc.overrun, Server: &CBS{Budget: 3, Period: 15}},
				Config{Task: tc.c},
			)
			maxBacklog := 0
			allocs, jobs := runAllocs(t, s, func() {
				maxBacklog = max(maxBacklog, len(s.tasks["B"].backlog))
			})
			if allocs > maxRunAllocs {
				t.Errorf("Run allocated %d times for %d jobs, want ≤ %d regardless of the job count", allocs, jobs, maxRunAllocs)
			}
			st := s.Stats()
			if st.Postponements == 0 {
				t.Fatal("the overrunning served task never exhausted its budget")
			}
			if tc.backlog && maxBacklog == 0 {
				t.Fatal("the server backlog never formed")
			}
			for _, m := range st.Misses {
				if m.Task != "B" {
					t.Fatalf("CBS failed to isolate the overrun: %+v", m)
				}
			}
		})
	}
}
