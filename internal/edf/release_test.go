package edf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/calq"
	"pfair/internal/obs"
	"pfair/internal/task"
)

// checkNextRelease fails unless the simulator's cached next release
// equals an uncached probe of the release wheel from the current
// instant, the value Next used before the cache existed.
func checkNextRelease(t *testing.T, s *Simulator, when string) {
	t.Helper()
	want := int64(math.MaxInt64)
	if nr, ok := s.relWheel.NextOccupied(s.now); ok {
		want = nr
	}
	stale := s.relStale
	if got := s.nextRelease(); got != want {
		t.Fatalf("%s, t=%d: cached next release %d (stale %v), the wheel's is %d", when, s.now, got, stale, want)
	}
}

// earliestRelease returns the live task whose armed release is strictly
// earliest, or nil on a tie: its departure moves the wheel's minimum.
func earliestRelease(s *Simulator) *tstate {
	var first *tstate
	tie := false
	for _, ts := range s.byName {
		switch {
		case first == nil || ts.nextRelease < first.nextRelease:
			first, tie = ts, false
		case ts.nextRelease == first.nextRelease:
			tie = true
		}
	}
	if tie {
		return nil
	}
	return first
}

// TestNextReleaseCached: after every engine step, every Submit and every
// resumed Run, the cached next release equals an uncached NextOccupied
// probe. Seeded sets under both rules; under EDF odd seeds serve an
// overrunning task through a CBS; every third seed adds a task whose
// period exceeds calq.DefaultSpanCap, so its timer shares buckets with
// other rounds. Submit churn joins, reweights, and makes the task with
// the strictly earliest release leave (whenever one exists), and the run
// alternates stepping with Run to several horizons.
func TestNextReleaseCached(t *testing.T) {
	const long = 20000
	if long <= calq.DefaultSpanCap {
		t.Fatalf("period %d no longer exceeds the span cap %d", long, calq.DefaultSpanCap)
	}
	periods := []int64{10, 12, 16, 20, 24, 30, 40}
	earliestLeaves := 0
	for _, isRM := range rules {
		for seed := int64(1); seed <= 9; seed++ {
			name := fmt.Sprintf("rm=%v/seed%d", isRM, seed)
			r := rand.New(rand.NewSource(seed))
			s := newSimulator(isRM, nil)
			n := 3 + r.Intn(4)
			for _, i := range r.Perm(n) {
				p := periods[r.Intn(len(periods))]
				cfg := Config{Task: task.MustNew(fmt.Sprintf("T%d", i), 1, p)}
				if seed%2 == 1 && i == 0 && !isRM {
					cfg.ActualCost = func(job int64) int64 { return 1 + job%3*p/2 }
					cfg.Server = &CBS{Budget: 1, Period: p}
				}
				mustAdd(t, s, cfg)
			}
			if seed%3 == 0 {
				mustAdd(t, s, Config{Task: task.MustNew("L", 3, long)})
			}
			checkNextRelease(t, s, name+" after Add")

			joins := 0
			horizon := int64(0)
			for round := 0; round < 6; round++ {
				horizon += 300 + r.Int63n(400)
				if round%2 == 1 {
					if err := s.Run(horizon); err != nil {
						t.Fatal(err)
					}
					checkNextRelease(t, s, name+" after Run")
				} else {
					for s.eng.Now() < horizon {
						s.eng.Step()
						checkNextRelease(t, s, name+" after Step")
					}
				}
				var req admission.Request
				switch round % 3 {
				case 0:
					joins++
					req = admission.Join(task.MustNew(fmt.Sprintf("J%d", joins), 1, 40))
				case 1:
					ts := earliestRelease(s)
					if ts != nil {
						earliestLeaves++
					} else {
						ts = s.byName[r.Intn(len(s.byName))]
					}
					req = admission.Leave(ts.cfg.Task.Name)
				case 2:
					ts := s.byName[r.Intn(len(s.byName))]
					req = admission.Reweight(ts.cfg.Task.Name, 1, periods[r.Intn(len(periods))])
				}
				if _, err := s.Submit(req); err != nil {
					t.Fatalf("%s round %d %+v: %v", name, round, req, err)
				}
				checkNextRelease(t, s, fmt.Sprintf("%s after Submit %+v", name, req))
			}
			if err := s.Run(horizon + long + 1); err != nil {
				t.Fatal(err)
			}
			checkNextRelease(t, s, name+" after the last Run")
		}
	}
	if earliestLeaves == 0 {
		t.Fatal("no task left while holding the strictly earliest cached release")
	}
}

// sortByRank is the release order before the rank bitset: an insertion
// sort of one instant's due tasks by rank. The test keeps it as the
// reference for releaseDue.
func sortByRank(due []*tstate) {
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && due[j].rank < due[j-1].rank; j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
}

// TestReleaseBatchInRankOrder: with 260 synchronous tasks added out of
// name order, so ranks span five bitset words, every instant's EvRelease
// sequence and the order of ActualCost calls equal the insertion sort of
// that instant's due tasks by rank. Mid-run a task whose name sorts first
// joins (through Add, since an RM join through Submit takes no model to
// carry its ActualCost), which renumbers every rank, and one task leaves
// through Submit; the lcm of the periods brings every task's release
// together again after both.
func TestReleaseBatchInRankOrder(t *testing.T) {
	const n, joinAt, leaveAt, horizon = 260, 250, 500, 2401
	periods := []int64{300, 400, 600, 1200}
	for _, isRM := range rules {
		s := newSimulator(isRM, nil)
		rec := obs.NewRecorder(1 << 16)
		s.SetRecorder(rec)
		type release struct {
			name string
			job  int64
		}
		var calls []release
		config := func(tk *task.Task) Config {
			name := tk.Name
			return Config{Task: tk, ActualCost: func(job int64) int64 {
				calls = append(calls, release{name, job})
				return 1
			}}
		}
		r := rand.New(rand.NewSource(25))
		for _, i := range r.Perm(n) {
			mustAdd(t, s, config(task.MustNew(fmt.Sprintf("T%03d", i), 1, periods[i%len(periods)])))
		}
		if words := len(s.relBits); words < 5 {
			t.Fatalf("%d tasks fill %d bitset words, want ≥ 5", n, words)
		}

		var want []release
		maxBatch := 0
		for s.eng.Now() < horizon {
			now := s.eng.Now()
			switch now {
			case joinAt:
				mustAdd(t, s, config(task.MustNew("A", 1, 1200)))
				if s.tasks["T000"].rank != 1 {
					t.Fatal("the join did not renumber the ranks")
				}
			case leaveAt:
				if _, err := s.Submit(admission.Leave("T100")); err != nil {
					t.Fatal(err)
				}
			}
			var due []*tstate
			for _, ts := range s.order {
				if !ts.left && ts.nextRelease == now {
					due = append(due, ts)
				}
			}
			sortByRank(due)
			maxBatch = max(maxBatch, len(due))
			for _, ts := range due {
				want = append(want, release{ts.cfg.Task.Name, ts.nextJob})
			}
			s.eng.Step()
		}
		if maxBatch < 200 {
			t.Fatalf("rm=%v: largest release batch %d, want ≥ 200", isRM, maxBatch)
		}
		if rec.Dropped() != 0 {
			t.Fatalf("ring too small: dropped %d", rec.Dropped())
		}
		var got []release
		for _, e := range rec.Events() {
			if e.Kind == obs.EvRelease {
				got = append(got, release{rec.TaskName(e.Task), e.A})
			}
		}
		for _, c := range []struct {
			what string
			seq  []release
		}{{"EvRelease", got}, {"ActualCost", calls}} {
			what, seq := c.what, c.seq
			if len(seq) != len(want) {
				t.Fatalf("rm=%v: %d %s entries, want %d", isRM, len(seq), what, len(want))
			}
			for i := range want {
				if seq[i] != want[i] {
					t.Fatalf("rm=%v: %s entry %d is %+v, the rank sort gives %+v", isRM, what, i, seq[i], want[i])
				}
			}
		}
	}
}

// BenchmarkReleaseBurst: 1000 synchronous tasks of cost 1 and period
// 1000 (Σu = 1), so every op is one release batch of 1000 jobs followed
// by 1000 completions. It times the batch ordering that dominates Figure
// 2(a)'s largest sets, unobserved and with a recorder attached.
func BenchmarkReleaseBurst(b *testing.B) {
	const n, period = 1000, 1000
	for _, observed := range []bool{false, true} {
		name := "unobserved"
		if observed {
			name = "recorded"
		}
		b.Run(name, func(b *testing.B) {
			s := NewSimulator()
			if observed {
				s.SetRecorder(obs.NewRecorder(obs.DefaultRingCapacity))
			}
			for i := n - 1; i >= 0; i-- {
				if err := s.Add(Config{Task: task.MustNew(fmt.Sprintf("T%04d", i), 1, period)}); err != nil {
					b.Fatal(err)
				}
			}
			h := int64(2 * period)
			if err := s.Run(h); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				h += period
				if err := s.Run(h); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if m := s.Stats().Misses; len(m) != 0 {
				b.Fatalf("Σu = 1 set missed %d deadlines, first %+v", len(m), m[0])
			}
		})
	}
}
