// Command pfairsim schedules a task set with a chosen algorithm and prints
// the resulting schedule, counters, and (optionally) the Pfair window
// layout of each task.
//
// Tasks are given as name:cost/period triples, e.g.
//
//	pfairsim -m 2 -alg pd2 -slots 24 A:2/3 B:2/3 C:2/3
//
// A task whose period is too large for the run, so that its window
// arithmetic would overflow int64, is refused with an error.
//
// Flags:
//
//	-m N            processors (default 1)
//	-alg A          pd2 | pd | pf | epdf (default pd2)
//	-er             early-release (ERfair) eligibility
//	-slots T        slots to simulate (default two hyperperiods)
//	-windows        also print each task's subtask windows
//
// Observability (see internal/obs and DESIGN.md §7):
//
//	-trace FILE     write a Chrome trace-event JSON of the run; load it at
//	                https://ui.perfetto.dev (one lane per processor, one
//	                per task)
//	-timeline FILE  write a human-readable slot-by-slot event log
//	                ("-" = stdout)
//	-metrics        print a Prometheus-text metrics snapshot after the run:
//	                the scheduler-wide counters plus the per-task
//	                accounting as pfair_acct_* series; implies the trace
//	                recorder
//	-taskstats      print the per-task accounting as a table (dispatches,
//	                preemptions, migrations, response times, tardiness,
//	                exact lag extrema); implies the trace recorder
//	-phaseprof K    profile engine phase costs on every K-th step and
//	                print the per-phase table after the run (0 = off)
//	-ring N         trace ring capacity in events (default 65536; the ring
//	                keeps the most recent N when the run is longer)
//	-slotus N       microseconds one slot spans in the exported trace
//	                (default 1000)
//
// Profiling:
//
//	-cpuprofile FILE  write a CPU profile of the simulation loop
//	-memprofile FILE  write a heap profile taken after the run
//	-pprof ADDR       serve net/http/pprof on ADDR and block after the run
package main

import (
	"flag"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"pfair/internal/core"
	"pfair/internal/engine"
	"pfair/internal/obs"
	"pfair/internal/task"
	"pfair/internal/trace"
	"pfair/internal/verify"
)

func main() {
	m := flag.Int("m", 1, "number of processors")
	algName := flag.String("alg", "pd2", "scheduling algorithm: pd2|pd|pf|epdf")
	er := flag.Bool("er", false, "early-release (ERfair) eligibility")
	slots := flag.Int64("slots", 0, "slots to simulate (0 = two hyperperiods)")
	windows := flag.Bool("windows", false, "print subtask windows per task")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON (Perfetto-loadable) to this file")
	timelinePath := flag.String("timeline", "", "write a human-readable event timeline to this file (- = stdout)")
	metrics := flag.Bool("metrics", false, "print a Prometheus-text metrics snapshot, per-task accounting included, after the run (implies the trace recorder)")
	taskstats := flag.Bool("taskstats", false, "print a per-task accounting table after the run (implies the trace recorder)")
	phaseprof := flag.Int64("phaseprof", 0, "profile engine phases on every K-th step and print the phase table (0 = off)")
	ringCap := flag.Int("ring", obs.DefaultRingCapacity, "trace ring capacity in events")
	slotMicros := flag.Int64("slotus", 1000, "microseconds per slot in the exported trace")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address and block after the run")
	flag.Parse()

	seen := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { seen[f.Name] = true })
	if err := validateFlags(flagConfig{
		m:            *m,
		slots:        *slots,
		phaseprof:    *phaseprof,
		ringCap:      *ringCap,
		slotMicros:   *slotMicros,
		ringSet:      seen["ring"],
		slotusSet:    seen["slotus"],
		tracePath:    *tracePath,
		timelinePath: *timelinePath,
		taskstats:    *taskstats,
	}); err != nil {
		fatal("%v", err)
	}

	var alg core.Algorithm
	switch strings.ToLower(*algName) {
	case "pd2":
		alg = core.PD2
	case "pd":
		alg = core.PD
	case "pf":
		alg = core.PF
	case "epdf":
		alg = core.EPDF
	default:
		fatal("unknown algorithm %q", *algName)
	}

	if flag.NArg() == 0 {
		fatal("no tasks given; expected name:cost/period arguments")
	}
	var set task.Set
	for _, arg := range flag.Args() {
		t, err := parseTask(arg)
		if err != nil {
			fatal("%v", err)
		}
		set = append(set, t)
	}
	if err := set.Validate(); err != nil {
		fatal("%v", err)
	}

	horizon := *slots
	if horizon <= 0 {
		hp, ok := set.HyperperiodOK()
		if !ok {
			fatal("the task set's hyperperiod (lcm of periods) overflows int64, so the default horizon cannot be computed; pass an explicit -slots")
		}
		horizon = 2 * hp
		if horizon/2 != hp || horizon > 10000 {
			horizon = 10000
		}
	}

	if err := checkRange(set, horizon); err != nil {
		fatal("%v", err)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
	}

	if *windows {
		for _, t := range set {
			fmt.Printf("windows of %v:\n", t)
			pat := core.NewPattern(t.Cost, t.Period)
			last := 2 * t.Cost
			w, err := trace.Windows(pat, 1, last)
			if err != nil {
				fatal("rendering windows of %v: %v", t, err)
			}
			fmt.Print(w)
			fmt.Println()
		}
	}

	var engOpts []engine.Option
	var prof *obs.PhaseProfiler
	if *phaseprof > 0 {
		prof = obs.NewPhaseProfiler(nil, *phaseprof)
		engOpts = append(engOpts, engine.WithProfiler(prof))
	}
	s := core.NewScheduler(*m, alg, core.Options{EarlyRelease: *er}, engOpts...)
	var rec verify.Recorder
	s.OnSlot(rec.Record)

	// Attach the observability layer only when some consumer asked for it:
	// unobserved runs keep the nil-recorder fast path. The per-task
	// accounting behind -taskstats and -metrics is folded from the event
	// stream, so either implies the recorder.
	var orec *obs.Recorder
	var met *obs.SchedulerMetrics
	var acct *obs.Accounting
	if *tracePath != "" || *timelinePath != "" || *taskstats || *metrics {
		orec = obs.NewRecorder(*ringCap)
	}
	if *taskstats || *metrics {
		// Attached before any event is emitted: the accounting table sees
		// the full stream even when the ring wraps.
		acct = obs.NewAccounting()
		orec.SetAccounting(acct)
	}
	if *metrics {
		met = obs.NewSchedulerMetrics(nil)
	}
	if orec != nil || met != nil {
		s.Observe(orec, met)
	}

	for _, t := range set {
		if err := s.Join(t); err != nil {
			fatal("admitting %v: %v (total weight %v on %d processors)", t, err, set.TotalWeight(), *m)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
	}
	if err := s.RunUntil(horizon); err != nil {
		fatal("simulation: %v", err)
	}
	s.FinishMisses(horizon)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if acct != nil {
		acct.Finalize(horizon)
	}

	fmt.Printf("%s on %d processor(s), %d slots (digits = processor):\n", alg, *m, horizon)
	to := horizon
	if to > 120 {
		to = 120
		fmt.Printf("(showing first %d slots)\n", to)
	}
	// No task departs, so Tasks() lists every task id's name in id order.
	fmt.Print(trace.Schedule(rec.Slots, 0, to, s.Tasks()))

	st := s.Stats()
	fmt.Printf("\nallocations=%d context-switches=%d preemptions=%d migrations=%d misses=%d\n",
		st.Allocations, st.ContextSwitches, st.Preemptions, st.Migrations, len(st.Misses))
	for i, miss := range st.Misses {
		if i == 10 {
			fmt.Printf("  … %d more\n", len(st.Misses)-10)
			break
		}
		fmt.Printf("  miss: %s subtask %d deadline %d scheduled %d\n", s.Name(miss.Task), miss.Subtask, miss.Deadline, miss.ScheduledAt)
	}

	if *taskstats {
		fmt.Printf("\nper-task accounting (%d events consumed):\n", acct.Events())
		if err := obs.WriteTaskTable(os.Stdout, acct.Snapshot()); err != nil {
			fatal("taskstats: %v", err)
		}
	}
	if prof != nil {
		fmt.Printf("\nengine phase profile:\n")
		if err := prof.WriteTable(os.Stdout); err != nil {
			fatal("phaseprof: %v", err)
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal("trace: %v", err)
		}
		extra := map[string]any{"alg": alg.String(), "m": *m}
		opt := obs.ChromeTraceOptions{SlotMicros: *slotMicros, Procs: *m, Extra: extra}
		if err := obs.WriteChromeTrace(f, orec, opt); err != nil {
			fatal("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("trace: %v", err)
		}
		fmt.Printf("\nwrote Chrome trace (%d events, %d dropped) to %s; open it at https://ui.perfetto.dev\n",
			len(orec.Events()), orec.Dropped(), *tracePath)
	}
	if *timelinePath != "" {
		out := os.Stdout
		if *timelinePath != "-" {
			f, err := os.Create(*timelinePath)
			if err != nil {
				fatal("timeline: %v", err)
			}
			defer f.Close()
			out = f
		} else {
			fmt.Println()
		}
		if err := obs.WriteTimeline(out, orec); err != nil {
			fatal("timeline: %v", err)
		}
	}
	if *metrics {
		fmt.Println()
		s.PublishMetrics()
		if err := met.Registry().WritePrometheus(os.Stdout); err != nil {
			fatal("metrics: %v", err)
		}
		if err := acct.WritePrometheus(os.Stdout); err != nil {
			fatal("metrics: %v", err)
		}
		if prof != nil {
			if err := prof.Registry().WritePrometheus(os.Stdout); err != nil {
				fatal("metrics: %v", err)
			}
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("memprofile: %v", err)
		}
	}
	if *pprofAddr != "" {
		fmt.Fprintf(os.Stderr, "pprof server listening on %s; Ctrl-C to exit\n", *pprofAddr)
		select {}
	}
}

// flagConfig carries the flag values validateFlags audits, plus which
// observability flags were set explicitly (flag.Visit), so a flag that
// only modifies another flag's output can be rejected when that output
// was never requested.
type flagConfig struct {
	m            int
	slots        int64
	phaseprof    int64
	ringCap      int
	slotMicros   int64
	ringSet      bool
	slotusSet    bool
	tracePath    string
	timelinePath string
	taskstats    bool
}

// validateFlags rejects invalid flag values and inert flag combinations
// up front, with one-line errors — before any simulation state exists,
// so a typo cannot surface as a late panic or a silently ignored option.
func validateFlags(c flagConfig) error {
	if c.m < 1 {
		return fmt.Errorf("-m %d: need at least one processor", c.m)
	}
	if c.slots < 0 {
		return fmt.Errorf("-slots %d: slot count cannot be negative (0 = two hyperperiods)", c.slots)
	}
	if c.phaseprof < 0 {
		return fmt.Errorf("-phaseprof %d: sampling interval cannot be negative (0 = off)", c.phaseprof)
	}
	if c.ringCap < 1 {
		return fmt.Errorf("-ring %d: the trace ring needs at least one event of capacity", c.ringCap)
	}
	if c.slotMicros < 1 {
		return fmt.Errorf("-slotus %d: a slot must span at least one microsecond in the exported trace", c.slotMicros)
	}
	if c.slotusSet && c.tracePath == "" {
		return fmt.Errorf("-slotus only affects the exported Chrome trace; pass -trace FILE as well")
	}
	if c.ringSet && c.tracePath == "" && c.timelinePath == "" && !c.taskstats {
		return fmt.Errorf("-ring sizes the trace event ring; pass -trace, -timeline, or -taskstats as well")
	}
	return nil
}

// checkRange rejects a task whose Pfair window arithmetic within the
// first horizon slots leaves int64, which would otherwise surface as
// spurious deadline misses. There a task's pattern computes i·p for
// subtask indices i ≤ horizon+1, and a heavy task's group deadlines
// compute d·(p−e) and k·p, each at most 2(horizon+2)·p. That largest
// product is checked exactly, in 128 bits.
func checkRange(set task.Set, horizon int64) error {
	for _, t := range set {
		hi, lo := bits.Mul64(uint64(horizon)+2, uint64(t.Period))
		if hi != 0 || lo > math.MaxInt64/2 {
			return fmt.Errorf("task %v: period %d is too large for a %d-slot run; its window arithmetic would overflow int64 (2·(slots+2)·period must stay below 2⁶³)", t.Name, t.Period, horizon)
		}
	}
	return nil
}

// parseTask parses "name:cost/period", where cost and period are
// decimal integers and nothing may follow the period.
func parseTask(s string) (*task.Task, error) {
	name, rest, ok := strings.Cut(s, ":")
	cost, period, ok2 := strings.Cut(rest, "/")
	e, errE := strconv.ParseInt(cost, 10, 64)
	p, errP := strconv.ParseInt(period, 10, 64)
	if !ok || name == "" || !ok2 || errE != nil || errP != nil {
		return nil, fmt.Errorf("bad task %q: want name:cost/period", s)
	}
	t := &task.Task{Name: name, Cost: e, Period: p}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
