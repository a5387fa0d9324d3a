package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// This file pins the ready queue against an oracle: in every slot Pick
// must select exactly the first m live eligible subtasks under the
// priority order less, in that order. It also pins that observing a run
// (recorder and metrics attached) changes nothing it schedules.

// assignString flattens one slot's assignment vector; processor order is
// part of the schedule, so it is kept.
func assignString(t int64, assigned []Assignment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", t)
	for _, a := range assigned {
		fmt.Fprintf(&b, " %d=%d/%d", a.Proc, a.Task, a.Subtask)
	}
	return b.String()
}

// topM returns the subtasks the oracle expects slot t to select: every
// live task whose current subtask is eligible at t, sorted by less,
// truncated to m.
func topM(s *Scheduler, t int64) []*tstate {
	var elig []*tstate
	for _, st := range s.order {
		if !st.departed && st.elig <= t {
			elig = append(elig, st)
		}
	}
	sort.Slice(elig, func(i, j int) bool { return less(s.alg, &elig[i].pr, &elig[j].pr) })
	if len(elig) > s.m {
		elig = elig[:s.m]
	}
	return elig
}

// leaveDue reports whether a departure takes effect at slot t. Such a
// slot's eligible set changes inside Step (at the top of Release), after
// the oracle has looked, so the oracle skips it.
func leaveDue(s *Scheduler, t int64) bool {
	for _, st := range s.leaves {
		if st.leaveAt <= t {
			return true
		}
	}
	return false
}

// runTopM steps s to horizon, checking every slot's selection against
// topM, and returns the assignment stream. churn, if non-nil, runs
// before each slot to apply the scenario's dynamic operations.
func runTopM(t *testing.T, s *Scheduler, horizon int64, churn func(now int64)) []string {
	t.Helper()
	var got []string
	for s.Now() < horizon {
		now := s.Now()
		if churn != nil {
			churn(now)
		}
		var want []*tstate
		check := !leaveDue(s, now)
		if check {
			want = topM(s, now)
		}
		got = append(got, assignString(now, s.Step()))
		if check && !samePick(s.selBuf, want) {
			t.Fatalf("slot %d: Pick selected %s, oracle wants %s", now, names(s.selBuf), names(want))
		}
	}
	return got
}

// samePick reports whether got and want hold the same subtasks in the
// same order.
func samePick(got, want []*tstate) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// names renders a selection as its task names, for failure messages.
func names(sts []*tstate) string {
	var b strings.Builder
	for _, st := range sts {
		fmt.Fprintf(&b, " %s", st.task.Name)
	}
	return "[" + strings.TrimSpace(b.String()) + "]"
}

// observeAll attaches a recorder and metrics block when observed.
func observeAll(s *Scheduler, observed bool) {
	if observed {
		s.Observe(obs.NewRecorder(1<<12), obs.NewSchedulerMetrics(nil))
	}
}

// TestPickIsTopM fuzzes task sets under every algorithm, plus a churn
// script of leaves, joins, and a reweight, and requires each slot's
// selection to be the oracle's top m. Each case runs unobserved and
// observed; the two must produce the same assignment stream and Stats.
func TestPickIsTopM(t *testing.T) {
	algs := []Algorithm{PD2, PD, PF, EPDF, PD2NoBBit}
	for _, alg := range algs {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(7 + int64(alg)))
			for trial := 0; trial < 20; trial++ {
				m := 1 + r.Intn(4)
				set := randomFeasibleSet(r, m, 3+r.Intn(8), 20)
				if len(set) == 0 {
					continue
				}
				horizon := set.Hyperperiod()
				if horizon > 2000 {
					horizon = 2000
				}
				run := func(observed bool) ([]string, Stats) {
					s := NewScheduler(m, alg, Options{})
					observeAll(s, observed)
					for _, tk := range set {
						if err := s.Join(tk); err != nil {
							t.Fatalf("join %v: %v", tk, err)
						}
					}
					return runTopM(t, s, horizon, nil), s.Stats()
				}
				plain, plainStats := run(false)
				seen, seenStats := run(true)
				requireSameRun(t, fmt.Sprintf("trial %d (m=%d, set=%v)", trial, m, set), plain, seen, plainStats, seenStats)
			}
		})
	}
	t.Run("churn", func(t *testing.T) {
		run := func(observed bool) ([]string, Stats) {
			s := NewScheduler(2, PD2, Options{})
			observeAll(s, observed)
			join := func(name string, e, p int64) {
				if err := s.Join(task.MustNew(name, e, p)); err != nil {
					t.Fatalf("join %s: %v", name, err)
				}
			}
			join("A", 2, 3)
			join("B", 3, 7)
			join("C", 1, 5)
			got := runTopM(t, s, 160, func(now int64) {
				switch now {
				case 40:
					if _, err := s.Submit(admission.Leave("B")); err != nil {
						t.Fatalf("leave B: %v", err)
					}
				case 80:
					join("D", 5, 6)
					if _, err := s.Submit(admission.Reweight("A", 1, 4)); err != nil {
						t.Fatalf("reweight A: %v", err)
					}
				}
			})
			return got, s.Stats()
		}
		plain, plainStats := run(false)
		seen, seenStats := run(true)
		requireSameRun(t, "churn", plain, seen, plainStats, seenStats)
	})
}

// requireSameRun fails unless the unobserved and observed runs agree
// slot for slot, processor for processor, and on every Stats counter.
func requireSameRun(t *testing.T, what string, plain, seen []string, plainStats, seenStats Stats) {
	t.Helper()
	if len(plain) != len(seen) {
		t.Fatalf("%s: %d unobserved slots vs %d observed", what, len(plain), len(seen))
	}
	for i := range plain {
		if plain[i] != seen[i] {
			t.Fatalf("%s: slot %d diverges\nunobserved: %s\nobserved:   %s", what, i, plain[i], seen[i])
		}
	}
	if !reflect.DeepEqual(plainStats, seenStats) {
		t.Fatalf("%s: Stats diverge\nunobserved: %+v\nobserved:   %+v", what, plainStats, seenStats)
	}
}
