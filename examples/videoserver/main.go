// Videoserver: the intra-sporadic (IS) model on a streaming workload.
//
// Section 2 motivates the IS model with "applications involving packets
// arriving over a network: due to network congestion and other factors,
// packets may arrive late or in bursts". This example runs a two-processor
// video server with four streams whose packets jitter: some subtasks
// arrive late (IS delays shift their windows right) and some arrive early
// in bursts (eligible before their Pfair release, deadline unchanged).
// PD² is optimal for IS systems, so no deadline is ever missed while
// Equation (2) holds.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"pfair"
	"pfair/internal/core"
	"pfair/internal/taskgen"
)

// jitterModel is a core.ReleaseModel with reproducible random late and
// early arrivals.
type jitterModel struct {
	seed      int64
	lateEvery int64 // ~1 in lateEvery subtasks is late
	maxLate   int64
	maxEarly  int64

	memo []int64 // memo[k-1] = cumulative delay of subtask k
	// rng is reseeded for every subtask's draws; reseeding a
	// taskgen.Source is O(1) and allocates nothing.
	rng *rand.Rand
}

//pfair:hotpath
func (j *jitterModel) Offset(i int64) int64 {
	// Cumulative delay: the sum of the per-subtask late draws up to i,
	// extended as the run reaches later subtasks. Each subtask's draw is
	// deterministic in (seed, index).
	for int64(len(j.memo)) < i {
		k := int64(len(j.memo)) + 1
		total := int64(0)
		if k > 1 {
			total = j.memo[k-2]
		}
		r := j.rng
		r.Seed(j.seed + k)
		if r.Int63n(j.lateEvery) == 0 {
			total += 1 + r.Int63n(j.maxLate)
		}
		j.memo = append(j.memo, total)
	}
	if i < 1 {
		return 0
	}
	return j.memo[i-1]
}

//pfair:hotpath
func (j *jitterModel) Earliness(i int64) int64 {
	r := j.rng
	r.Seed(^j.seed + i)
	if r.Int63n(j.lateEvery) == 0 {
		return r.Int63n(j.maxEarly + 1)
	}
	return 0
}

func run(w io.Writer) error {
	// Four streams: two HD (weight 2/3 ≈ a frame every 1.5 slots), one
	// SD (1/3), one audio (1/5). Σ wt = 2/3+2/3+1/3+1/5 = 1.866… ≤ 2.
	streams := []struct {
		name string
		e, p int64
	}{
		{"hd-1", 2, 3}, {"hd-2", 2, 3}, {"sd", 1, 3}, {"audio", 1, 5},
	}

	s := pfair.NewScheduler(2, pfair.PD2, pfair.Options{})
	for i, st := range streams {
		model := &jitterModel{seed: int64(100 + i), lateEvery: 7, maxLate: 3, maxEarly: 2, rng: rand.New(taskgen.NewSource(0))}
		if _, err := s.Submit(pfair.JoinModel(pfair.MustNewTask(st.name, st.e, st.p), model)); err != nil {
			return fmt.Errorf("admitting %s: %w", st.name, err)
		}
	}

	const horizon = 2000
	// The streams joined in order, so a stream's task id is its index.
	delivered := make([]int64, len(streams))
	s.OnSlot(func(t int64, assigned []core.Assignment) {
		for _, a := range assigned {
			delivered[a.Task]++
		}
	})
	s.RunUntil(horizon)
	s.FinishMisses(horizon)

	fmt.Fprintf(w, "Video server: 4 jittery IS streams on 2 processors for %d slots.\n\n", horizon)
	for i, st := range streams {
		fmt.Fprintf(w, "  %-6s weight %d/%d  delivered %4d quanta\n", st.name, st.e, st.p, delivered[i])
	}
	st := s.Stats()
	fmt.Fprintf(w, "\nDeadline misses: %d (PD² is optimal for intra-sporadic systems).\n", len(st.Misses))
	fmt.Fprintf(w, "Context switches: %d, migrations: %d.\n", st.ContextSwitches, st.Migrations)
	if len(st.Misses) > 0 {
		return errors.New("unexpected misses — the IS optimality property was violated")
	}
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
