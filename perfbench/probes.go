package main

import (
	"fmt"
	"runtime"
	"time"

	"pfair/internal/admission"
	"pfair/internal/calq"
	"pfair/internal/core"
	"pfair/internal/edf"
	"pfair/internal/engine"
	"pfair/internal/fuzz"
	"pfair/internal/heap"
	"pfair/internal/obs"
	"pfair/internal/overhead"
	"pfair/internal/partition"
	"pfair/internal/rational"
	"pfair/internal/task"
	"pfair/internal/verify"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// probeReport collects the per-layer metrics and the outputs the probes
// checked along the way.
type probeReport struct {
	metrics           map[string]metric
	attempted, failed int64
	problems          []string
}

func (p *probeReport) set(name, unit string, v float64) {
	p.metrics[name] = metric{Value: v, Unit: unit}
}

// expect counts one checked output, failing it unless ok.
func (p *probeReport) expect(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// probeReps is how often each cheap probe repeats; it reports the median.
const probeReps = 5

// timeReps runs fn reps times and returns the median duration.
func timeReps(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

func perOp(d time.Duration, ops int64, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(ops)
}

// runProbes times calls into each layer's public functions on inputs
// generated from seed: the sweep's sets for the analysis layers, the sim
// grid for the slot path, and fuzz cases for the oracles.
func runProbes(seed int64) *probeReport {
	p := &probeReport{metrics: map[string]metric{}}
	sweep := genSweepSets(seed)
	probeTaskgen(p, seed, len(sweep))
	probeOverhead(p, sweep)
	probePartition(p, sweep)
	probeRational(p, sweep)
	sims := genSimSets(seed, false)
	probeEngine(p, sims)
	probeSlotPath(p, sims)
	probeQueues(p, sims)
	probeEDF(p, sims)
	probeAdmission(p, sims)
	probeFuzz(p, seed)
	return p
}

func probeTaskgen(p *probeReport, seed int64, sets int) {
	d := timeReps(probeReps, func() { genSweepSets(seed) })
	p.set("taskgen.set_us", "us", perOp(d, int64(sets), time.Microsecond))
}

// probeOverhead evaluates both schemes on every sweep set, timing each
// call, and checks that each needs at least ⌈Σwt⌉ processors.
func probeOverhead(p *probeReport, sweep []sweepSet) {
	var pd2, ff [2]time.Duration // [N=50, N=500]
	var cnt [2]int64
	var pd2All, ffAll time.Duration
	var iters int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, s := range sweep {
		t0 := time.Now()
		rp := overhead.MinProcsPD2(s.set, s.params)
		t1 := time.Now()
		rf := overhead.MinProcsEDFFF(s.set, s.params)
		t2 := time.Now()
		pd2All += t1.Sub(t0)
		ffAll += t2.Sub(t1)
		iters += int64(rp.Iterations)
		k := -1
		switch s.n {
		case 50:
			k = 0
		case 500:
			k = 1
		}
		if k >= 0 {
			pd2[k] += t1.Sub(t0)
			ff[k] += t2.Sub(t1)
			cnt[k]++
		}
		// −1 means no processor count suffices, a legitimate answer.
		need := int(s.set.TotalWeight().Ceil())
		p.expect((rp.Processors < 0 || rp.Processors >= need) && (rf.Processors < 0 || rf.Processors >= need),
			"overhead n=%d: PD² %d, EDF-FF %d processors for ⌈U⌉ = %d", s.n, rp.Processors, rf.Processors, need)
	}
	runtime.ReadMemStats(&ms1)
	for k, tag := range []string{"n50", "n500"} {
		p.set("overhead.pd2_ms."+tag, "ms", perOp(pd2[k], cnt[k], time.Millisecond))
		p.set("overhead.edfff_ms."+tag, "ms", perOp(ff[k], cnt[k], time.Millisecond))
	}
	p.set("overhead.edfff_share", "ratio", float64(ffAll)/float64(ffAll+pd2All))
	p.set("overhead.pd2_iters", "count", float64(iters)/float64(len(sweep)))
	p.set("runtime.alloc_mb_per_set", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(len(sweep)))
}

// probePartition packs every sweep set first-fit in the Section 4
// (decreasing-period) order under the plain EDF test, counting probes.
func probePartition(p *probeReport, sweep []sweepSet) {
	var probes int64
	counting := func(assigned task.Set, cand *task.Task) bool {
		probes++
		return partition.EDFTest(assigned, cand)
	}
	ordered := make([]task.Set, len(sweep))
	for i, s := range sweep {
		ordered[i] = s.set.SortByPeriodDecreasing()
	}
	var bad []string
	// One pass: first-fit over the sweep's sets makes thousands of exact
	// acceptance tests per set.
	d := timeReps(1, func() {
		probes, bad = 0, bad[:0]
		for i, set := range ordered {
			a := partition.Pack(set, 0, partition.FirstFit, counting)
			if need := int(set.TotalWeight().Ceil()); !a.OK() || a.NumUsed() < need {
				bad = append(bad, fmt.Sprintf("partition set %d: %d processors for ⌈U⌉ = %d (ok=%v)", i, a.NumUsed(), need, a.OK()))
			}
		}
	})
	p.expect(len(bad) == 0, "%v", bad)
	p.set("partition.pack_us", "us", perOp(d, int64(len(sweep)), time.Microsecond))
	p.set("partition.probes", "count", float64(probes)/float64(len(sweep)))
}

// probeRational adds the sweep's stream of quantum-rounded PD² weights
// into one exact accumulator per set, as MinProcsPD2 does.
func probeRational(p *probeReport, sweep []sweepSet) {
	streams := make([][]rational.Rat, len(sweep))
	var n int64
	for i, s := range sweep {
		sPD2 := s.params.SchedPD2(int(s.set.TotalWeight().Ceil()), len(s.set))
		for _, t := range s.set {
			infl, _, ok := overhead.InflatePD2(t.Cost, t.Period, s.params, sPD2, s.params.CacheDelay(t))
			if ok {
				streams[i] = append(streams[i], overhead.PD2Weight(infl, t.Period, s.params.Quantum))
			}
		}
		n += int64(len(streams[i]))
	}
	d := timeReps(probeReps, func() {
		for _, st := range streams {
			acc := rational.NewAcc()
			for _, w := range st {
				acc.Add(w)
			}
		}
	})
	p.set("rational.acc_add_ns", "ns", perOp(d, n, time.Nanosecond))
}

// probeEngine runs the M = 1 and M = 16 sim sets with the engine's phase
// profiler sampling every step and reports the mean ns per phase.
func probeEngine(p *probeReport, sims []simSet) {
	for _, m := range []int{1, 16} {
		var sum [5]int64
		var count int64
		for _, ss := range sims {
			if ss.m != m {
				continue
			}
			prof := obs.NewPhaseProfiler(nil, 1)
			s := newPD2(ss, engine.WithProfiler(prof))
			p.expect(s.RunUntil(2*simHorizon) == nil, "profiled run M=%d failed", m)
			for i, h := range []*obs.Histogram{prof.Release, prof.Pick, prof.Dispatch, prof.Account, prof.Next} {
				sum[i] += h.Sum()
			}
			count += prof.Samples.Value()
		}
		for i, phase := range []string{"release", "pick", "dispatch", "account", "next"} {
			p.set(fmt.Sprintf("engine.%s_ns.m%d", phase, m), "ns", float64(sum[i])/float64(count))
		}
	}
}

func newPD2(ss simSet, opts ...engine.Option) *core.Scheduler {
	s := core.NewScheduler(ss.m, core.PD2, core.Options{}, opts...)
	if err := joinAll(s, ss.set); err != nil {
		// fitWeight keeps exactly what fits, so Join cannot refuse.
		panic(err)
	}
	return s
}

// probeSlotPath times construction and joins, then one round of PD² on
// every sim set unrecorded and recorded, timed from outside.
func probeSlotPath(p *probeReport, sims []simSet) {
	var joins int64
	for _, ss := range sims {
		joins += int64(len(ss.set))
	}
	d := timeReps(probeReps, func() {
		for _, ss := range sims {
			newPD2(ss)
		}
	})
	p.set("core.join_us", "us", perOp(d, joins, time.Microsecond))

	var plain, recorded, plainM1 time.Duration
	var decisions, events, slotsM1 int64
	var mallocs uint64
	for _, ss := range sims {
		s := newPD2(ss)
		r := newPD2(ss)
		rec := obs.NewRecorder(obs.DefaultRingCapacity)
		r.Observe(rec, nil)
		// One unmeasured round first, so the measured one is steady state.
		p.expect(s.RunUntil(simHorizon) == nil && r.RunUntil(simHorizon) == nil, "warm-up run M=%d failed", ss.m)
		before := rec.Total()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := s.RunUntil(2 * simHorizon)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		t0 = time.Now()
		errR := r.RunUntil(2 * simHorizon)
		plain += d
		recorded += time.Since(t0)
		p.expect(err == nil && errR == nil, "run M=%d failed", ss.m)
		mallocs += m1.Mallocs - m0.Mallocs
		st := s.Stats()
		decisions += st.Allocations + st.ContextSwitches
		events += int64(rec.Total() - before)
		if ss.m == 1 {
			plainM1 += d
			slotsM1 += simHorizon
		}
	}
	slots := int64(len(sims)) * simHorizon
	p.set("core.decisions_per_slot", "count", float64(decisions)/float64(2*slots))
	p.set("core.ns_per_slot.m1", "ns", perOp(plainM1, slotsM1, time.Nanosecond))
	p.set("runtime.allocs_per_slot", "count", float64(mallocs)/float64(slots))
	p.set("obs.events_per_slot", "count", float64(events)/float64(slots))
	p.set("obs.recorded_slowdown", "ratio", float64(recorded)/float64(plain))
}

// qop is one operation of the ready/release stream the sim sets generate:
// a release-timer arm or drain, or a ready-queue insert or pop-min.
type qop struct {
	kind uint8
	task int32
	key  int64
}

const (
	opArm uint8 = iota // wheel: arm task's release at slot key
	opDue              // wheel: drain slot key
	opAdd              // ready queue: insert task under deadline key
	opPop              // ready queue: remove the minimum
)

// queueStream replays a Pfair-style slot loop over one sim set for
// horizon slots: due subtasks enter the ready queue keyed by deadline,
// the m earliest deadlines (ties by task id) run, and each run subtask's
// successor is armed at its release. It returns the operation stream and
// the task count.
func queueStream(ss simSet, horizon int64) ([]qop, int) {
	n := len(ss.set)
	pats := make([]*core.Pattern, n)
	next := make([]int64, n)
	var span int64 = 1
	for i, t := range ss.set {
		pats[i] = core.NewPattern(t.Cost, t.Period)
		next[i] = 1
		if t.Period > span {
			span = t.Period
		}
	}
	wheel := calq.NewWheel[int32](span)
	wheel.Reserve(n)
	ready := calq.NewMinQueue[int32](span, func(a, b int32) bool { return a < b })
	items := make([]*calq.Item[int32], n)
	entries := make([]*calq.Entry[int32], n)
	var ops []qop
	for i := range items {
		items[i] = calq.NewItem(int32(i))
		entries[i] = calq.NewEntry(int32(i))
		wheel.Add(items[i], pats[i].Release(1))
		ops = append(ops, qop{opArm, int32(i), pats[i].Release(1)})
	}
	for t := int64(0); t < horizon; t++ {
		ops = append(ops, qop{opDue, 0, t})
		for _, i := range wheel.Due(t) {
			d := pats[i].Deadline(next[i])
			ready.Add(entries[i], d)
			ops = append(ops, qop{opAdd, i, d})
		}
		for k := 0; k < ss.m && ready.Len() > 0; k++ {
			i := ready.PopMin()
			ops = append(ops, qop{opPop, i, 0})
			next[i]++
			rel := pats[i].Release(next[i])
			if rel <= t {
				rel = t + 1
			}
			wheel.Add(items[i], rel)
			ops = append(ops, qop{opArm, i, rel})
		}
	}
	return ops, n
}

// probeQueues replays the M = 1 and M = 16 sim sets' stream through the
// calendar wheel, the deadline-bucketed min-queue and the binary heap.
func probeQueues(p *probeReport, sims []simSet) {
	type stream struct {
		ops  []qop
		n    int
		span int64
	}
	var streams []stream
	var wheelOps, readyOps int64
	for _, ss := range sims {
		if ss.m != 1 && ss.m != 16 {
			continue
		}
		ops, n := queueStream(ss, simHorizon)
		var span int64 = 1
		for _, t := range ss.set {
			span = max(span, t.Period)
		}
		streams = append(streams, stream{ops, n, span})
		for _, o := range ops {
			if o.kind <= opDue {
				wheelOps++
			} else {
				readyOps++
			}
		}
	}
	wheelD := timeReps(probeReps, func() {
		for _, s := range streams {
			w := calq.NewWheel[int32](s.span)
			w.Reserve(s.n)
			items := make([]*calq.Item[int32], s.n)
			for i := range items {
				items[i] = calq.NewItem(int32(i))
			}
			for _, o := range s.ops {
				switch o.kind {
				case opArm:
					w.Add(items[o.task], o.key)
				case opDue:
					w.Due(o.key)
				}
			}
		}
	})
	queueD := timeReps(probeReps, func() {
		for _, s := range streams {
			q := calq.NewMinQueue[int32](s.span, func(a, b int32) bool { return a < b })
			entries := make([]*calq.Entry[int32], s.n)
			for i := range entries {
				entries[i] = calq.NewEntry(int32(i))
			}
			for _, o := range s.ops {
				switch o.kind {
				case opAdd:
					q.Add(entries[o.task], o.key)
				case opPop:
					q.PopMin()
				}
			}
		}
	})
	type hent struct {
		id  int32
		key int64
	}
	heapD := timeReps(probeReps, func() {
		for _, s := range streams {
			h := heap.New(func(a, b *hent) bool {
				if a.key != b.key {
					return a.key < b.key
				}
				return a.id < b.id
			})
			items := make([]*heap.Item[*hent], s.n)
			for i := range items {
				items[i] = heap.NewItem(&hent{id: int32(i)})
			}
			for _, o := range s.ops {
				switch o.kind {
				case opAdd:
					items[o.task].Value.key = o.key
					h.PushItem(items[o.task])
				case opPop:
					h.Pop()
				}
			}
		}
	})
	p.set("calq.wheel_ns", "ns", perOp(wheelD, wheelOps, time.Nanosecond))
	p.set("calq.minqueue_ns", "ns", perOp(queueD, readyOps, time.Nanosecond))
	p.set("heap.push_pop_ns", "ns", perOp(heapD, readyOps, time.Nanosecond))
}

// probeEDF runs uniprocessor EDF on the M = 1 sim sets, timed from
// outside around Run like PD², with the simulator's own timing off.
func probeEDF(p *probeReport, sims []simSet) {
	var elapsed time.Duration
	var inv, jobs int64
	var mallocs uint64
	var slots int64
	for _, ss := range sims {
		if ss.m != 1 {
			continue
		}
		s := edf.NewSimulator()
		s.MeasureOverhead(false)
		for _, t := range ss.set {
			if err := s.Add(edf.Config{Task: t}); err != nil {
				p.expect(false, "edf add: %v", err)
			}
		}
		p.expect(s.Run(simHorizon) == nil, "edf warm-up run failed")
		st0 := s.Stats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := s.Run(2 * simHorizon)
		elapsed += time.Since(t0)
		runtime.ReadMemStats(&m1)
		st := s.Stats()
		p.expect(err == nil && len(st.Misses) == 0, "edf run: err %v, %d misses", err, len(st.Misses))
		inv += st.Invocations - st0.Invocations
		jobs += st.Jobs - st0.Jobs
		mallocs += m1.Mallocs - m0.Mallocs
		slots += simHorizon
	}
	p.set("edf.ns_per_invocation", "ns", perOp(elapsed, inv, time.Nanosecond))
	p.set("edf.ns_per_slot.m1", "ns", perOp(elapsed, slots, time.Nanosecond))
	p.set("edf.invocations_per_slot", "count", float64(inv)/float64(slots))
	p.set("edf.allocs_per_job", "count", float64(mallocs)/float64(jobs))
}

// probeAdmission submits joins, leaves and reweights to a running PD²
// scheduler through engine.Submit, one slot apart, timing each call.
func probeAdmission(p *probeReport, sims []simSet) {
	// The M = 4 set with the most tasks leaves room to reweight a
	// different task in every cycle; trimming it to weight 3 leaves room
	// for the joins.
	var host simSet
	for _, ss := range sims {
		if ss.m == 4 && len(ss.set) > len(host.set) {
			host = ss
		}
	}
	host.set = fitWeight(host.set, host.m-1)
	s := newPD2(host)
	eng := s.Engine()
	p.expect(s.RunUntil(100) == nil, "admission warm-up failed")
	cycles := min(40, len(host.set))
	lat := map[string][]float64{}
	submit := func(op string, req admission.Request) {
		t0 := time.Now()
		_, err := eng.Submit(req)
		lat[op] = append(lat[op], float64(time.Since(t0))/float64(time.Microsecond))
		p.expect(err == nil, "admission %s: %v", op, err)
		s.Step()
	}
	for k := 0; k < cycles; k++ {
		name := fmt.Sprintf("X%d", k)
		submit("join", admission.Join(task.MustNew(name, 1, 1000)))
		submit("leave", admission.Leave(name))
		t := host.set[k]
		submit("reweight", admission.Reweight(t.Name, t.Cost, t.Period))
	}
	for _, op := range []string{"join", "leave", "reweight"} {
		p.set("admission.submit_us."+op, "us", median(lat[op]))
	}
}

// probeFuzz times case generation and each pinned kind's oracle, and
// verify.Check on recorded full-utilization schedules.
func probeFuzz(p *probeReport, seed int64) {
	kinds, err := fuzzKinds()
	if err != nil {
		p.expect(false, "fuzz kinds: %v", err)
		return
	}
	const trials = 12
	campaign := fuzzSeed(seed, -1)
	var gen time.Duration
	explained := 0
	for _, k := range kinds {
		var check time.Duration
		for t := int64(0); t < trials; t++ {
			t0 := time.Now()
			c := fuzz.GenCase(k, campaign, t)
			t1 := time.Now()
			out := fuzz.CheckCase(c, core.PD2)
			check += time.Since(t1)
			gen += t1.Sub(t0)
			explained += out.Explained
			p.expect(len(out.Violations) == 0, "fuzz %s: %v", c.Replay(), out.Violations)
		}
		p.set("fuzz.check_us."+k.String(), "us", perOp(check, trials, time.Microsecond))
	}
	p.set("fuzz.gen_us", "us", perOp(gen, int64(trials*len(kinds)), time.Microsecond))
	p.set("fuzz.explained", "count", float64(explained))

	full, _ := fuzz.ParseKind("fullutil")
	var checkD []float64
	for t := int64(0); t < trials; t++ {
		c := fuzz.GenCase(full, campaign, t)
		s := core.NewScheduler(c.M, core.PD2, core.Options{})
		for _, tk := range c.Set {
			if err := s.Join(tk); err != nil {
				p.expect(false, "verify join: %v", err)
			}
		}
		rec := &verify.Recorder{}
		s.OnSlot(rec.Record)
		p.expect(s.RunUntil(c.Horizon) == nil, "verify run %s failed", c.Replay())
		t0 := time.Now()
		errs := verify.Check(c.Set, rec.Slots, verify.Options{Processors: c.M, Horizon: c.Horizon})
		checkD = append(checkD, float64(time.Since(t0))/float64(time.Microsecond))
		p.expect(len(errs) == 0, "verify %s: %v", c.Replay(), errs)
	}
	p.set("verify.check_us", "us", median(checkD))
}
