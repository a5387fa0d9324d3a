package verify_test

import (
	"math/rand"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/core"
	"pfair/internal/fuzz"
	"pfair/internal/task"
	"pfair/internal/verify"
)

// delayModel is the cumulative IS delay table fuzz's is kind uses.
type delayModel []int64

func (d delayModel) Offset(i int64) int64 {
	sum := int64(0)
	for j := int64(0); j < i && j < int64(len(d)); j++ {
		sum += d[j]
	}
	return sum
}

func (delayModel) Earliness(int64) int64 { return 0 }

// traceOf runs a fuzz case's PD² schedule the way its oracle does and
// returns the verified set (the admitted tasks in admission order, so
// set[id] is the task with that id), the trace and the oracle's options.
func traceOf(c fuzz.Case) (task.Set, []verify.Slot, verify.Options) {
	s := core.NewScheduler(c.M, core.PD2, core.Options{})
	var rec verify.Recorder
	s.OnSlot(rec.Record)
	opts := verify.Options{Processors: c.M, Horizon: c.Horizon}
	switch c.Kind {
	case fuzz.KindFullUtil:
		for _, t := range c.Set {
			_ = s.Join(t) // full-utilization sets are feasible by construction
		}
		s.RunUntil(c.Horizon)
		return c.Set, rec.Slots, opts
	case fuzz.KindIS:
		var vset task.Set
		opts.SkipLag = true
		for _, t := range c.Set {
			m := delayModel(c.Delays[t.Name])
			if _, err := s.Submit(admission.JoinModel(t, m)); err == nil {
				vset = append(vset, t)
				opts.Offsets = append(opts.Offsets, m.Offset)
			}
		}
		s.RunUntil(c.Horizon)
		return vset, rec.Slots, opts
	}
	// KindDynamic: scripted joins (absent = slot 0) and leaves.
	opts.Horizon = 0
	opts.SkipLag = true
	admitted := map[string]bool{}
	var vset task.Set
	for slot := int64(0); slot < c.Horizon; slot++ {
		for _, t := range c.Set {
			if c.Joins[t.Name] == slot && s.Join(t) == nil {
				admitted[t.Name] = true
				vset = append(vset, t)
				at := slot
				opts.Offsets = append(opts.Offsets, func(int64) int64 { return at })
			}
		}
		for _, t := range c.Set {
			if at, ok := c.Leaves[t.Name]; ok && at == slot && admitted[t.Name] {
				_, _ = s.Submit(admission.Leave(t.Name)) // a refused leave only keeps the task
			}
		}
		s.Step()
	}
	return vset, rec.Slots, opts
}

// corrupt applies one to three random edits to a copy of slots.
func corrupt(rng *rand.Rand, set task.Set, slots []verify.Slot) []verify.Slot {
	out := make([]verify.Slot, len(slots))
	for i, s := range slots {
		out[i] = verify.Slot{Time: s.Time, Assigned: append([]core.Assignment(nil), s.Assigned...)}
	}
	if len(out) == 0 {
		return out
	}
	// id draws a task id, one in five of them unknown: -1 or len(set).
	id := func() int {
		if len(set) == 0 || rng.Intn(5) == 0 {
			return []int{-1, len(set)}[rng.Intn(2)]
		}
		return rng.Intn(len(set))
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		i := rng.Intn(len(out))
		s := &out[i]
		if len(s.Assigned) == 0 {
			s.Assigned = append(s.Assigned, core.Assignment{Proc: rng.Intn(3), Task: id(), Subtask: 1 + rng.Int63n(5)})
			continue
		}
		j := rng.Intn(len(s.Assigned))
		a := &s.Assigned[j]
		switch rng.Intn(9) {
		case 0:
			s.Assigned = append(s.Assigned[:j], s.Assigned[j+1:]...)
		case 1:
			s.Assigned = append(s.Assigned, *a)
		case 2:
			a.Proc = rng.Intn(8) - 2
		case 3:
			a.Task = id()
		case 4:
			// Subtasks stay ≥ 1: referenceCheck indexes Pattern's
			// window tables by i−1 and panics below that, where Check
			// reports an error (TestSubtaskBelowOneReported).
			a.Subtask = max(a.Subtask+rng.Int63n(5)-2, 1)
		case 5:
			if i > 0 {
				s.Time = out[i-1].Time - rng.Int63n(2)
			}
		case 6:
			s.Time += 1 + rng.Int63n(4)
		case 7:
			out = append(out[:i], out[i+1:]...)
		default:
			out[i], out[len(out)-1-i] = out[len(out)-1-i], out[i]
		}
	}
	return out
}

// TestCheckMatchesReferenceOnFuzzCases corrupts PD² traces of fuzz
// fullutil, is and dynamic cases and requires Check to report exactly
// what the reference verifier reports, string for string.
func TestCheckMatchesReferenceOnFuzzCases(t *testing.T) {
	trials := int64(40)
	if testing.Short() {
		trials = 10
	}
	rng := rand.New(rand.NewSource(19))
	for _, kind := range []fuzz.Kind{fuzz.KindFullUtil, fuzz.KindIS, fuzz.KindDynamic} {
		for trial := int64(0); trial < trials; trial++ {
			c := fuzz.GenCase(kind, 3, trial)
			set, slots, opts := traceOf(c)
			for k := 0; k < 4; k++ {
				trace := slots
				if k > 0 {
					trace = corrupt(rng, set, slots)
				}
				o := opts
				o.AllowTardy = rng.Intn(4) == 0
				if rng.Intn(4) == 0 {
					o.Processors = rng.Intn(c.M + 1)
				}
				got := verify.Check(set, trace, o)
				want := verify.ReferenceCheck(set, trace, o)
				if len(got) != len(want) {
					t.Fatalf("%s edit %d: Check reported %d errors, the reference %d\n got: %v\nwant: %v",
						c.Replay(), k, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i].Error() != want[i].Error() {
						t.Fatalf("%s edit %d: error %d differs\n got: %s\nwant: %s", c.Replay(), k, i, got[i], want[i])
					}
				}
			}
		}
	}
}
