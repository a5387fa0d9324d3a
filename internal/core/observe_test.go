package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"

	"pfair/internal/admission"
	"pfair/internal/obs"
	"pfair/internal/rational"
	"pfair/internal/task"
)

// countKinds tallies the recorded events by kind.
func countKinds(rec *obs.Recorder) map[obs.EventKind]int64 {
	counts := make(map[obs.EventKind]int64)
	for _, e := range rec.Events() {
		counts[e.Kind]++
	}
	return counts
}

// TestObserveEventsMatchStats cross-checks the trace stream, metrics
// block and per-task accounting against the scheduler's own Stats
// counters and task state: every counted action must have exactly one
// corresponding event, so the trace is a faithful expansion of the
// aggregate statistics.
func TestObserveEventsMatchStats(t *testing.T) {
	s := newLoadedScheduler(t, 3, 20, 2.7, 7)
	rec := obs.NewRecorder(1 << 18)
	acct := obs.NewAccounting()
	rec.SetAccounting(acct)
	met := obs.NewSchedulerMetrics(nil)
	s.Observe(rec, met)
	s.RunUntil(1000)

	if rec.Dropped() != 0 {
		t.Fatalf("ring too small for the run: dropped %d events", rec.Dropped())
	}
	st := s.Stats()
	counts := countKinds(rec)

	if counts[obs.EvJoin] != int64(len(s.Tasks())) {
		t.Errorf("EvJoin count = %d, want %d", counts[obs.EvJoin], len(s.Tasks()))
	}
	if counts[obs.EvSchedule] != st.Allocations {
		t.Errorf("EvSchedule count = %d, Stats.Allocations = %d", counts[obs.EvSchedule], st.Allocations)
	}
	if counts[obs.EvMigrate] != st.Migrations {
		t.Errorf("EvMigrate count = %d, Stats.Migrations = %d", counts[obs.EvMigrate], st.Migrations)
	}
	if counts[obs.EvPreempt] != st.Preemptions {
		t.Errorf("EvPreempt count = %d, Stats.Preemptions = %d", counts[obs.EvPreempt], st.Preemptions)
	}
	if counts[obs.EvRelease] == 0 {
		t.Error("no release events recorded")
	}
	// Idle + schedule events must tile the m×slots grid exactly.
	if got := counts[obs.EvIdle] + counts[obs.EvSchedule]; got != int64(s.Processors())*st.Slots {
		t.Errorf("idle(%d)+schedule(%d) = %d, want m·slots = %d",
			counts[obs.EvIdle], counts[obs.EvSchedule], got, int64(s.Processors())*st.Slots)
	}

	// Occupancy tiles the run: one count per slot, m+1 entries, the
	// busy processors summing to the allocations.
	var slots, busy int64
	for k, n := range st.Occupancy {
		slots += n
		busy += int64(k) * n
	}
	if len(st.Occupancy) != s.Processors()+1 || slots != st.Slots || busy != st.Allocations {
		t.Errorf("Occupancy %v: %d entries over %d slots and %d allocations, want %d entries over %d and %d",
			st.Occupancy, len(st.Occupancy), slots, busy, s.Processors()+1, st.Slots, st.Allocations)
	}

	// Nothing fills the metrics block until it is published; then it
	// reads Stats.
	if met.Slots.Value() != 0 || met.Occupancy.Count() != 0 {
		t.Errorf("metrics moved before PublishMetrics: slots %d, occupancy samples %d", met.Slots.Value(), met.Occupancy.Count())
	}
	s.PublishMetrics()
	s.PublishMetrics() // idempotent: publishing overwrites
	for name, pair := range map[string][2]int64{
		"slots":            {met.Slots.Value(), st.Slots},
		"allocations":      {met.Allocations.Value(), st.Allocations},
		"context switches": {met.ContextSwitches.Value(), st.ContextSwitches},
		"migrations":       {met.Migrations.Value(), st.Migrations},
		"preemptions":      {met.Preemptions.Value(), st.Preemptions},
		"misses":           {met.Misses.Value(), int64(len(st.Misses))},
		"occupancy count":  {met.Occupancy.Count(), st.Slots},
		"occupancy sum":    {met.Occupancy.Sum(), st.Allocations},
	} {
		if pair[0] != pair[1] {
			t.Errorf("published %s = %d, Stats says %d", name, pair[0], pair[1])
		}
	}

	// Each task's accounting row must match its own allocation count, and
	// the rows must sum to the scheduler-wide totals.
	rows := acct.Snapshot()
	if len(rows) != len(s.order) {
		t.Fatalf("accounting has %d rows, scheduler admitted %d tasks", len(rows), len(s.order))
	}
	for i, st := range s.order {
		row := rows[i]
		if row.ID != st.obsID || row.Name != st.task.Name {
			t.Fatalf("row %d is %s#%d, want %s#%d", i, row.Name, row.ID, st.task.Name, st.obsID)
		}
		if row.Dispatches != st.allocated {
			t.Errorf("%s: %d dispatches accounted, %d allocated", row.Name, row.Dispatches, st.allocated)
		}
	}
	var sum obs.TaskStats
	for _, row := range rows {
		sum.Dispatches += row.Dispatches
		sum.Preemptions += row.Preemptions
		sum.Migrations += row.Migrations
		sum.Misses += row.Misses
	}
	for name, pair := range map[string][2]int64{
		"dispatches":  {sum.Dispatches, st.Allocations},
		"preemptions": {sum.Preemptions, st.Preemptions},
		"migrations":  {sum.Migrations, st.Migrations},
		"misses":      {sum.Misses, int64(len(st.Misses))},
	} {
		if pair[0] != pair[1] {
			t.Errorf("per-task %s sum to %d, Stats says %d", name, pair[0], pair[1])
		}
	}

	// Stats is a snapshot: later slots do not move its Occupancy.
	s.Step()
	slots = 0
	for _, n := range st.Occupancy {
		slots += n
	}
	if slots != st.Slots {
		t.Errorf("an earlier Stats' Occupancy covers %d slots after one more step, want %d", slots, st.Slots)
	}
}

// epdfCounterexample is the pinned set EPDF misses on and PD²
// schedules: eight tasks of total weight exactly 5 on five processors.
func epdfCounterexample() task.Set {
	return task.Set{
		task.MustNew("T0", 4, 9), task.MustNew("T1", 3, 6), task.MustNew("T2", 1, 2),
		task.MustNew("T3", 8, 9), task.MustNew("T4", 6, 10), task.MustNew("T5", 3, 6),
		task.MustNew("T6", 9, 10), task.MustNew("T7", 2, 3),
	}
}

// observedRun runs set under alg on five processors to horizon with a
// recorder (Accounting attached) and a metrics block, ends the run with
// FinishMisses, and publishes the block as pfairsim -metrics does.
func observedRun(t *testing.T, alg Algorithm, set task.Set, horizon int64) (*Scheduler, *obs.Recorder, *obs.SchedulerMetrics) {
	t.Helper()
	s := NewScheduler(5, alg, Options{})
	rec := obs.NewRecorder(obs.DefaultRingCapacity)
	rec.SetAccounting(obs.NewAccounting())
	met := obs.NewSchedulerMetrics(nil)
	s.Observe(rec, met)
	for _, tk := range set {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	if err := s.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	s.FinishMisses(horizon)
	s.PublishMetrics()
	return s, rec, met
}

// TestObserveMisses checks the pinned EPDF counterexample at two
// hyperperiods, which ends with one tardy miss and one run-end miss:
// only the tardy one has an EvMiss event, and only it is counted in the
// published miss counter and tardiness histogram.
func TestObserveMisses(t *testing.T) {
	set := epdfCounterexample()
	s, rec, met := observedRun(t, EPDF, set, 2*set.Hyperperiod())

	st := s.Stats()
	var tardy, tardiness int64
	for _, m := range st.Misses {
		if m.ScheduledAt >= 0 {
			tardy++
			tardiness += m.ScheduledAt + 1 - m.Deadline
		}
	}
	if tardy == 0 || tardy == int64(len(st.Misses)) {
		t.Fatalf("EPDF counterexample has %d misses, %d tardy; the test needs both kinds", len(st.Misses), tardy)
	}
	if got := countKinds(rec)[obs.EvMiss]; got != tardy {
		t.Errorf("EvMiss count = %d, Stats has %d tardy misses", got, tardy)
	}
	if met.Misses.Value() != tardy {
		t.Errorf("miss counter = %d, want the %d tardy misses", met.Misses.Value(), tardy)
	}
	if met.Tardiness.Count() != tardy || met.Tardiness.Sum() != tardiness {
		t.Errorf("tardiness histogram has %d samples summing to %d, want %d and %d",
			met.Tardiness.Count(), met.Tardiness.Sum(), tardy, tardiness)
	}
	// PD² under observation still schedules the same set cleanly — the
	// instrumented comparator must not change the priority order.
	s2, _, _ := observedRun(t, PD2, set, 2*set.Hyperperiod())
	if misses := s2.Stats().Misses; len(misses) != 0 {
		t.Errorf("observed PD² missed on the feasible counterexample: %+v", misses[0])
	}
}

// TestObserveTieBreaks: on a fully utilized set PD² must resolve at least
// one deadline tie via the b-bit rule, the published tie-break counters
// must equal the tie-break events, and each event must narrate its
// slot's selection boundary: the winner ran in that slot and the loser
// did not.
func TestObserveTieBreaks(t *testing.T) {
	set := epdfCounterexample()
	_, rec, met := observedRun(t, PD2, set, set.Hyperperiod())

	counts := countKinds(rec)
	if counts[obs.EvTieBreakB] == 0 {
		t.Error("no b-bit tie-break events on a fully utilized PD² run")
	}
	if met.TieBreakB.Value() != counts[obs.EvTieBreakB] {
		t.Errorf("b-bit counter = %d, %d events recorded", met.TieBreakB.Value(), counts[obs.EvTieBreakB])
	}
	if met.TieBreakGroup.Value() != counts[obs.EvTieBreakGroup] {
		t.Errorf("group counter = %d, %d events recorded", met.TieBreakGroup.Value(), counts[obs.EvTieBreakGroup])
	}
	type ran struct {
		slot int64
		task int32
	}
	scheduled := map[ran]bool{}
	for _, e := range rec.Events() {
		if e.Kind == obs.EvSchedule {
			scheduled[ran{e.Slot, e.Task}] = true
		}
	}
	for _, e := range rec.Events() {
		if e.Kind == obs.EvTieBreakB || e.Kind == obs.EvTieBreakGroup {
			if !scheduled[ran{e.Slot, e.Task}] {
				t.Fatalf("tie-break winner did not run in its slot: %+v", e)
			}
			if scheduled[ran{e.Slot, int32(e.A)}] {
				t.Fatalf("tie-break loser ran in its slot: %+v", e)
			}
		}
	}
}

// TestPublishedExposition pins the whole scheduler-wide pfair_*
// exposition of two runs, as pfairsim -metrics prints it, against
// goldens written from the per-slot counters the scheduler kept before
// the block was filled at exposition: the EPDF counterexample at two
// hyperperiods (one tardy and one run-end miss) and the same set under
// PD² for one hyperperiod (b-bit and group-deadline ties).
func TestPublishedExposition(t *testing.T) {
	set := epdfCounterexample()
	for _, c := range []struct {
		alg     Algorithm
		horizon int64
		golden  string
	}{
		{EPDF, 2 * set.Hyperperiod(), "testdata/metrics_epdf.prom"},
		{PD2, set.Hyperperiod(), "testdata/metrics_pd2.prom"},
	} {
		_, _, met := observedRun(t, c.alg, set, c.horizon)
		var got bytes.Buffer
		if err := met.Registry().WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%v exposition differs from %s:\n got:\n%s\nwant:\n%s", c.alg, c.golden, got.String(), want)
		}
	}
}

// TestObserveJoinLeave checks the dynamic-task events: a departing task
// emits EvLeave with its total allocation, and its instruments stop
// counting afterwards.
func TestObserveJoinLeave(t *testing.T) {
	s := NewScheduler(2, PD2, Options{})
	rec := obs.NewRecorder(1 << 12)
	s.Observe(rec, obs.NewSchedulerMetrics(nil))
	for _, tk := range []*task.Task{task.MustNew("A", 1, 2), task.MustNew("B", 1, 3)} {
		if err := s.Join(tk); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	s.RunUntil(6)
	dec, err := s.Submit(admission.Leave("B"))
	when := dec.EffectiveAt
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	s.RunUntil(when + 2)

	var leaves []obs.Event
	for _, e := range rec.Events() {
		if e.Kind == obs.EvLeave {
			leaves = append(leaves, e)
		}
	}
	if len(leaves) != 1 {
		t.Fatalf("got %d EvLeave events, want 1", len(leaves))
	}
	if got := rec.TaskName(leaves[0].Task); got != "B" {
		t.Errorf("leave event names task %q, want B", got)
	}
	if leaves[0].A <= 0 {
		t.Errorf("leave event allocation = %d, want > 0", leaves[0].A)
	}
}

// TestObserveLagExtrema is an exact oracle for the accounting's lag
// extrema: PD² runs a seeded set through a mid-run join, a leave and a
// reweight with an Accounting attached, and after every slot the test
// reads each live task's exact Scheduler.Lag, keeping running extrema of
// its numerator over the task's period. After Finalize they must equal
// every row's LagMaxNum/LagMinNum, incarnation by incarnation.
func TestObserveLagExtrema(t *testing.T) {
	const horizon = 600
	s := newLoadedScheduler(t, 3, 8, 2.4, 11)
	rec := obs.NewRecorder(1 << 16)
	acct := obs.NewAccounting()
	rec.SetAccounting(acct)
	s.Observe(rec, nil)
	names := s.Tasks()

	type extrema struct{ max, min, den int64 }
	oracle := map[int32]*extrema{}
	for s.Now() < horizon {
		switch s.Now() {
		case 100:
			if err := s.Join(task.MustNew("J", 2, 9)); err != nil {
				t.Fatalf("join: %v", err)
			}
		case 200:
			if _, err := s.Submit(admission.Leave(names[0])); err != nil {
				t.Fatalf("leave: %v", err)
			}
		case 300:
			st := s.tasks[names[1]]
			if _, err := s.Submit(admission.Reweight(names[1], st.task.Cost, 2*st.task.Period)); err != nil {
				t.Fatalf("reweight: %v", err)
			}
		}
		s.Step()
		for _, st := range s.order {
			if st.departed {
				continue
			}
			lag, err := s.Lag(st.task.Name)
			if err != nil {
				t.Fatal(err)
			}
			num := lag.Mul(rational.FromInt(st.task.Period))
			if num.Den() != 1 {
				t.Fatalf("%s: lag %v is not a multiple of 1/%d", st.task.Name, lag, st.task.Period)
			}
			ex := oracle[st.obsID]
			if ex == nil {
				// Lag is zero at the join boundary.
				ex = &extrema{den: st.task.Period}
				oracle[st.obsID] = ex
			}
			ex.max = max(ex.max, num.Num())
			ex.min = min(ex.min, num.Num())
		}
	}
	acct.Finalize(horizon)

	rows := acct.Snapshot()
	if len(rows) != len(oracle) {
		t.Fatalf("accounting has %d rows, oracle saw %d incarnations", len(rows), len(oracle))
	}
	var left, reweighted bool
	for _, row := range rows {
		ex := oracle[row.ID]
		if ex == nil {
			t.Fatalf("%s#%d: no live lag observed", row.Name, row.ID)
		}
		if row.LagDen != ex.den || row.LagMaxNum != ex.max || row.LagMinNum != ex.min {
			t.Errorf("%s#%d: accounting lag [%d,%d]/%d, exact [%d,%d]/%d",
				row.Name, row.ID, row.LagMinNum, row.LagMaxNum, row.LagDen, ex.min, ex.max, ex.den)
		}
		left = left || row.Left
		reweighted = reweighted || row.Reweights > 0
	}
	if !left || !reweighted {
		t.Fatalf("workload lost its churn: left=%v reweighted=%v", left, reweighted)
	}
}

// TestObserveMidRunAttach: attaching mid-run registers already-admitted
// tasks and starts the stream at the current slot; detaching stops it.
func TestObserveMidRunAttach(t *testing.T) {
	s := newLoadedScheduler(t, 2, 10, 1.8, 3)
	s.RunUntil(100)
	rec := obs.NewRecorder(1 << 12)
	s.Observe(rec, obs.NewSchedulerMetrics(nil))
	s.RunUntil(150)
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events after mid-run attach")
	}
	for _, e := range events {
		if e.Slot < 100 {
			t.Fatalf("event before attach slot: %+v", e)
		}
	}
	if len(rec.TaskIDs()) != len(s.Tasks()) {
		t.Errorf("registered %d tasks, scheduler has %d", len(rec.TaskIDs()), len(s.Tasks()))
	}
	total := rec.Total()
	s.Observe(nil, nil)
	s.RunUntil(200)
	if rec.Total() != total {
		t.Error("events recorded after detach")
	}
}

// release is one EvRelease as the release-order test compares it: the
// scheduler's task id, the subtask index and its deadline.
type release struct {
	id              int
	index, deadline int64
}

// referenceReleases predicts slot t's EvRelease run from the scheduler's
// state before the slot's Step: every pending subtask due by t whose task
// does not depart at t, shuffled, then ordered by the insertion sort the
// scheduler used before it emitted from an id bitset, keyed by
// (eligibility, id). A subtask left pending past its eligibility slot
// would sort ahead of the slot's own releases, so the reference also
// checks enqueue's elig == t invariant.
func referenceReleases(s *Scheduler, t int64, rng *rand.Rand) []release {
	var due []*tstate
	for _, st := range s.order {
		if st.pendItem.Queued() && st.elig <= t && !(st.leaving && st.leaveAt <= t) {
			due = append(due, st)
		}
	}
	rng.Shuffle(len(due), func(i, j int) { due[i], due[j] = due[j], due[i] })
	dueBefore := func(a, b *tstate) bool {
		if a.elig != b.elig {
			return a.elig < b.elig
		}
		return a.id < b.id
	}
	for i := 1; i < len(due); i++ {
		for j := i; j > 0 && dueBefore(due[j], due[j-1]); j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	out := make([]release, len(due))
	for i, st := range due {
		out[i] = release{st.id, st.index, st.deadline}
	}
	return out
}

// TestReleaseEventsInIDOrder pins the order of each slot's EvRelease run
// on 240 synchronous tasks, whose ids span four bitset words and whose
// periods all divide 120, so slots 120 and 240 release a burst. A
// recorder is attached mid-run; leaves punch holes in the id space, and
// reweights and late joins take fresh ids in a fifth word. In every slot
// the run must be strictly increasing in task id and equal the reference
// insertion sort's order, subtask indices and deadlines included.
func TestReleaseEventsInIDOrder(t *testing.T) {
	const (
		horizon = 241
		attach  = 30
	)
	periods := []int64{10, 12, 15, 20, 24, 30, 40, 60, 120}
	s := NewScheduler(16, PD2, Options{})
	for i := 0; i < 240; i++ {
		if err := s.Join(task.MustNew(fmt.Sprintf("T%d", i), 1, periods[i%len(periods)])); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	rec := obs.NewRecorder(1 << 20)
	want := map[int64][]release{}
	for s.Now() < horizon {
		now := s.Now()
		switch now {
		case attach:
			s.Observe(rec, nil)
		case 45:
			for i := 0; i < 240; i += 7 {
				if _, err := s.Submit(admission.Leave(fmt.Sprintf("T%d", i))); err != nil {
					t.Fatalf("leave: %v", err)
				}
			}
		case 70:
			for i := 3; i < 240; i += 11 {
				if i%7 == 0 {
					continue
				}
				if _, err := s.Submit(admission.Reweight(fmt.Sprintf("T%d", i), 1, 2*periods[i%len(periods)])); err != nil {
					t.Fatalf("reweight: %v", err)
				}
			}
		case 90:
			for i := 0; i < 30; i++ {
				if err := s.Join(task.MustNew(fmt.Sprintf("J%d", i), 1, periods[i%len(periods)])); err != nil {
					t.Fatalf("join: %v", err)
				}
			}
		}
		if now >= attach {
			want[now] = referenceReleases(s, now, rng)
		}
		s.Step()
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring too small: dropped %d events", rec.Dropped())
	}
	if misses := s.Stats().Misses; len(misses) != 0 {
		t.Fatalf("feasible set missed a deadline: %+v", misses[0])
	}

	idOf := map[int32]int{}
	for _, st := range s.order {
		if st.obsID >= 0 {
			idOf[st.obsID] = st.id
		}
	}
	got := map[int64][]release{}
	for _, e := range rec.Events() {
		if e.Kind == obs.EvRelease {
			id, ok := idOf[e.Task]
			if !ok {
				t.Fatalf("release of unknown observability id: %+v", e)
			}
			got[e.Slot] = append(got[e.Slot], release{id, e.A, e.B})
		}
	}
	maxWord := 0
	for slot := int64(attach); slot < horizon; slot++ {
		run := got[slot]
		for i := 1; i < len(run); i++ {
			if run[i].id <= run[i-1].id {
				t.Fatalf("slot %d: release of id %d follows id %d", slot, run[i].id, run[i-1].id)
			}
		}
		if !slices.Equal(run, want[slot]) {
			t.Fatalf("slot %d: EvRelease run\n got %v\nwant %v", slot, run, want[slot])
		}
		if len(run) > 0 {
			maxWord = max(maxWord, run[len(run)-1].id>>6)
		}
	}
	// The workload must keep what the test relies on.
	if len(got[120]) < 100 || len(got[240]) < 100 {
		t.Errorf("hyperperiod bursts released %d and %d subtasks, want ≥ 100 each", len(got[120]), len(got[240]))
	}
	if maxWord < 4 {
		t.Errorf("highest released id is in bitset word %d, want ≥ 4", maxWord)
	}
	var left, rejoined bool
	for _, st := range s.order {
		left = left || (st.departed && st.rejoin == nil)
		rejoined = rejoined || (st.departed && st.rejoin != nil)
	}
	if !left || !rejoined {
		t.Fatalf("workload lost its churn: left=%v reweighted=%v", left, rejoined)
	}
}
