// Command perfbench is the repository's benchmark. It runs one seeded
// workload for a fixed time, checks the workload's outputs, and prints as
// its last line one JSON object with the run's metrics:
//
//	go run . --workload sim --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it reports the per-layer metrics instead: it alternates
// untraced and traced rounds of the workload (the gap between them is
// the tracing overhead) and then times calls into each layer's public
// functions. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

func main() {
	// One worker goroutine on one processor: the collector and the
	// runtime share the worker's CPU, and its rounds are charged for them.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sweep, sim, sim-edf, sim-rec or fuzz")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured time, in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (sweep, sim, sim-edf, sim-rec, fuzz), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	fmt.Fprintf(stderr, "perfbench: workload %s, seed %d, %g s, trace %d\n", w.name, *seed, *seconds, *traced)
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(*w, *seed, *seconds, stderr)
	} else {
		res, err = runUntraced(*w, *seed, *seconds, stderr)
	}
	var line []byte
	if err == nil {
		// Marshal refuses NaN and infinities, so a metric that could not
		// be measured fails the run rather than printing a bogus result.
		line, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupReps is how many times an untraced run sets its workload up; it
// reports the median and measures the last one.
const setupReps = 9

// minRounds is the fewest measured rounds a run makes, however long they
// take.
const minRounds = 3

func runUntraced(w workload, seed int64, seconds float64, log io.Writer) (result, error) {
	sw := newStopwatch()
	setups := make([]float64, setupReps)
	rawSetups := make([]float64, setupReps)
	var r runner
	for i := range setups {
		// Each set-up starts from the same heap, with the previous
		// set-up's runner collected, untimed.
		r = nil
		runtime.GC()
		sw.take()
		var err error
		if r, err = w.setup(seed, false); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups[i], rawSetups[i] = sw.take()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	all, raw := measure(seconds, nil, r)
	runtime.ReadMemStats(&ms1)
	rates := all[0]
	res := checked(log, r)
	res.Metrics = map[string]metric{
		"setup_s":     {median(setups), "s"},
		"ops_per_s":   {median(rates), "1/s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	q1, q2, q3 := quartiles(rates)
	fmt.Fprintf(log, "ops_per_s = %s: median %.6g %s over %d rounds (quartiles %.6g, %.6g; spread %.3f)\n",
		w.metric, q2, w.unit, len(rates), q1, q3, iqrShare(rates))
	usPerOp := make([]float64, len(rates))
	for i, r := range rates {
		usPerOp[i] = 1e6 / r
	}
	if pct, v, ok := tailPercentile(usPerOp); ok {
		fmt.Fprintf(log, "CPU µs per operation: median %.6g, p%g %.6g\n", median(usPerOp), pct, v)
	}
	fmt.Fprintf(log, "setup_s: median %.6g of %d set-ups; peak_rss_mb: %.6g\n", median(setups), len(setups), res.Metrics["peak_rss_mb"].Value)
	fmt.Fprintf(log, "unscaled by the reference: ops_per_s %.6g (spread %.3f), setup_s %.6g\n",
		median(raw[0]), iqrShare(raw[0]), median(rawSetups))
	fmt.Fprintf(log, "collections: %.3g per measured round, %.3g MB allocated per round\n",
		float64(ms1.NumGC-ms0.NumGC)/float64(len(rates)+1), float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(len(rates)+1))
	return res, nil
}

func runTraced(w workload, seed int64, seconds float64, log io.Writer) (result, error) {
	plain, err := w.setup(seed, false)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	traced, err := w.setup(seed, true)
	if err != nil {
		return result{}, fmt.Errorf("%s traced set-up: %w", w.name, err)
	}
	tr := newTracer()
	rates, _ := measure(seconds, tr, plain, traced)
	res := checked(log, plain, traced)
	runtime.GC()
	p := runProbes(seed)
	res.Attempted += p.attempted
	res.Failed += p.failed
	res.Correct = res.Failed == 0
	report(log, p.problems)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.set("bench.trace_overhead", "ratio", median(rates[0])/median(rates[1])-1)
	p.set("runtime.gc_cpu_share", "ratio", ms.GCCPUFraction)
	res.Metrics = p.metrics
	tr.writeSummary(log)
	return res, nil
}

// measure runs an unmeasured warm-up round 0 on every runner, then rounds
// 1, 2, ... until seconds have passed and at least minRounds are done. It
// returns each runner's operations per CPU second in each measured round,
// at the reference's nominal speed and as measured. Every runner after
// the first records its spans in tr; the runners take turns, alternating
// which goes first in each round.
func measure(seconds float64, tr *tracer, rs ...runner) (rates, raw [][]float64) {
	tracerOf := func(i int) *tracer {
		if i == 0 {
			return nil
		}
		return tr
	}
	for i, r := range rs {
		r.round(0, tracerOf(i), func() {})
	}
	rates = make([][]float64, len(rs))
	raw = make([][]float64, len(rs))
	runtime.GC() // the measured rounds start from the same heap
	sw := newStopwatch()
	start := time.Now()
	for round := 1; round <= minRounds || time.Since(start).Seconds() < seconds; round++ {
		for k := range rs {
			i := (k + round) % len(rs)
			ops := rs[i].round(round, tracerOf(i), sw.lap)
			nominal, t := sw.take()
			rates[i] = append(rates[i], float64(ops)/nominal)
			raw[i] = append(raw[i], float64(ops)/t)
		}
	}
	return rates, raw
}

// cpuTime returns the CPU time the process has used, in user and kernel
// mode, over all its threads (so the garbage collector's share counts).
// Unlike wall time it does not grow while other processes hold the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checked collects the runners' output checks into a result.
func checked(log io.Writer, rs ...runner) result {
	var res result
	var problems []string
	for _, r := range rs {
		a, f, p := r.check()
		res.Attempted += a
		res.Failed += f
		problems = append(problems, p...)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(log, "fail_share: %d failed of %d attempted (%.4g)\n", res.Failed, res.Attempted, float64(res.Failed)/float64(max(res.Attempted, 1)))
	report(log, problems)
	return res
}

func report(log io.Writer, problems []string) {
	for i, p := range problems {
		if i == 10 {
			fmt.Fprintf(log, "  ... %d more\n", len(problems)-i)
			break
		}
		fmt.Fprintf(log, "  FAIL %s\n", p)
	}
}

// peakRSSMB returns the process's peak resident set size in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN() // fails the run: JSON cannot encode NaN
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
