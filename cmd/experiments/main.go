// Command experiments regenerates the data behind every figure in the
// paper's evaluation. Each subcommand prints a TSV table (or an ASCII
// diagram) to stdout.
//
// Usage:
//
//	experiments [flags] fig1|fig2a|fig2b|fig3|fig4|fig5|response|fairness|sync|quantum|phases|all
//
// One experiment per run; with none, all of them run. An unknown name or
// a second positional argument prints the usage text and exits 2.
//
// Flags:
//
//	-sets N     task sets per data point (default: scaled-down defaults)
//	-horizon H  slots simulated per set in the Figure 2 measurement
//	-full       use the paper's full protocol (1000 sets/point, 10⁶-slot
//	            horizons) — fig3/fig4 take about 20 s of CPU, fig2a/
//	            fig2b hours serially; both divide by -workers
//	-seed S     base RNG seed
//	-workers N  goroutines per sweep (default: one per CPU; 1 = the old
//	            serial harness). Output is byte-identical for any value.
//	-gotrace F  write a runtime/trace of the whole run to F, with one
//	            trace region per figure (inspect with `go tool trace F`)
//	-metrics    print a per-figure summary (wall time, goroutine peak,
//	            allocation delta) to stderr after each figure
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	rtrace "runtime/trace"
	"slices"
	"strings"
	"time"

	"pfair/internal/experiments"
	"pfair/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// experimentNames lists the subcommands in the order `all` runs them.
var experimentNames = []string{"fig1", "fig2a", "fig2b", "fig3", "fig4", "fig5", "response", "fairness", "sync", "quantum", "phases", "all"}

// run is the command with its arguments and output streams made explicit,
// so tests can drive it. It returns the process exit status: 0 on
// success, 1 when an experiment fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: experiments [flags] %s\n", strings.Join(experimentNames, "|"))
		fs.PrintDefaults()
	}
	sets := fs.Int("sets", 0, "task sets per data point (0 = default)")
	horizon := fs.Int64("horizon", 0, "slots per set for fig2 (0 = default)")
	full := fs.Bool("full", false, "run the paper's full protocol (slow)")
	seed := fs.Int64("seed", 0, "base RNG seed (0 = default)")
	workers := fs.Int("workers", runtime.NumCPU(), "worker goroutines per sweep (1 = serial)")
	measured := fs.Bool("measured", false, "fig3/fig4: measure scheduling costs on this machine first (the paper's methodology) instead of the calibrated default models")
	gotrace := fs.String("gotrace", "", "write a runtime/trace of the run to this file (one region per figure)")
	metrics := fs.Bool("metrics", false, "print per-figure wall-time and allocation summaries to stderr")
	every := fs.Int64("every", 0, "phases: profile one engine step in every N (0 = default)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cmd := "all"
	if fs.NArg() > 0 {
		cmd = fs.Arg(0)
	}
	if !slices.Contains(experimentNames, cmd) {
		fmt.Fprintf(stderr, "unknown experiment %q\n", cmd)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintf(stderr, "one experiment per run; got %q\n", fs.Args())
		fs.Usage()
		return 2
	}

	if *gotrace != "" {
		f, err := os.Create(*gotrace)
		if err != nil {
			fmt.Fprintln(stderr, "gotrace:", err)
			return 1
		}
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(stderr, "gotrace:", err)
			return 1
		}
		defer f.Close()
		defer rtrace.Stop()
	}

	f2 := experiments.DefaultFig2Config()
	f3 := experiments.DefaultFig3Config()
	qs := experiments.DefaultQuantumSweepConfig()
	if *full {
		f2.SetsPerN = 1000
		f2.Horizon = 1000000
		f3.SetsPerStep = 1000
		qs.Sets = 1000
	}
	if *sets > 0 {
		f2.SetsPerN = *sets
		f3.SetsPerStep = *sets
		qs.Sets = *sets
	}
	if *horizon > 0 {
		f2.Horizon = *horizon
	}
	if *seed != 0 {
		f2.Seed = *seed
		f3.Seed = *seed
		qs.Seed = *seed
	}
	f2.Workers = *workers
	f3.Workers = *workers
	qs.Workers = *workers

	// Each figure sweep runs inside a runtime/trace region (visible in
	// `go tool trace` when -gotrace is set) and, with -metrics, reports a
	// summary registry of wall time and allocator movement to stderr —
	// enough to see which figure dominates a slow `experiments all` run.
	status := 0
	figure := func(name string, fn func()) {
		if (cmd != name && cmd != "all") || status != 0 {
			return
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now() //pfair:allowtime cmd-layer measurement, reported to stderr only
		rtrace.WithRegion(context.Background(), "figure:"+name, fn)
		elapsed := time.Since(start) //pfair:allowtime cmd-layer measurement, reported to stderr only
		if !*metrics {
			return
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		reg := obs.NewRegistry()
		reg.Gauge("experiments_wall_ms", fmt.Sprintf("figure=%q", name), "wall-clock time of the sweep").Set(elapsed.Milliseconds())
		reg.Gauge("experiments_allocs", fmt.Sprintf("figure=%q", name), "heap allocations during the sweep").Set(int64(after.Mallocs - before.Mallocs))
		reg.Gauge("experiments_alloc_bytes", fmt.Sprintf("figure=%q", name), "bytes allocated during the sweep").Set(int64(after.TotalAlloc - before.TotalAlloc))
		reg.Gauge("experiments_workers", fmt.Sprintf("figure=%q", name), "worker goroutines configured").Set(int64(*workers))
		fmt.Fprintf(stderr, "# metrics %s\n", name)
		if err := reg.WriteSummary(stderr); err != nil {
			fmt.Fprintln(stderr, "metrics:", err)
		}
	}
	figure("fig1", func() {
		for _, fig := range []func() (string, error){experiments.Fig1a, experiments.Fig1b} {
			out, err := fig()
			if err != nil {
				fmt.Fprintln(stderr, "fig1:", err)
				status = 1
				return
			}
			fmt.Fprint(stdout, out)
			fmt.Fprintln(stdout)
		}
	})
	figure("fig2a", func() {
		experiments.RenderFig2a(stdout, experiments.Fig2a(f2))
	})
	figure("fig2b", func() {
		experiments.RenderFig2b(stdout, experiments.Fig2b(f2))
	})
	// Figures 3 and 4 are two renderings of one sweep: `all` computes it
	// (and, with -measured, the cost models) once, for whichever of the
	// two runs first.
	var (
		fig34      map[int][]experiments.Fig3Point
		modelsLine string
	)
	runFig34 := func(render func(io.Writer, []int, map[int][]experiments.Fig3Point)) {
		if fig34 == nil {
			if *measured {
				models := experiments.MeasureCostModels(f2)
				f3.Models = &models
				modelsLine = fmt.Sprintf("# measured cost models: S_EDF(n)=%.2f+%.4f·n  S_PD2(m,n)=%.2f+%.4f·n+%.2f·(m−1) µs\n",
					models.EDFBase, models.EDFPerTask, models.PD2Base, models.PD2PerTask, models.PD2PerProc)
			}
			fig34 = experiments.Fig3(f3)
		}
		fmt.Fprint(stdout, modelsLine)
		render(stdout, f3.Ns, fig34)
	}
	figure("fig3", func() { runFig34(experiments.RenderFig3) })
	figure("fig4", func() { runFig34(experiments.RenderFig4) })
	figure("fig5", func() {
		experiments.RenderFig5(stdout, experiments.Fig5Workers(90, *workers))
	})
	figure("response", func() {
		rc := experiments.DefaultResponseConfig()
		if *sets > 0 {
			rc.Sets = *sets
		}
		if *seed != 0 {
			rc.Seed = *seed
		}
		rc.Workers = *workers
		experiments.RenderResponse(stdout, experiments.ResponseTimes(rc))
	})
	figure("fairness", func() {
		fc := experiments.DefaultFairnessConfig()
		if *seed != 0 {
			fc.Seed = *seed
		}
		fc.Workers = *workers
		experiments.RenderFairness(stdout, experiments.Fairness(fc))
	})
	figure("sync", func() {
		sc := experiments.DefaultSyncConfig()
		if *sets > 0 {
			sc.Sets = *sets
		}
		if *seed != 0 {
			sc.Seed = *seed
		}
		sc.Workers = *workers
		experiments.RenderSync(stdout, experiments.SyncComparison(sc), sc.Sets)
	})
	figure("quantum", func() {
		experiments.RenderQuantum(stdout, experiments.QuantumSweep(qs))
	})
	figure("phases", func() {
		pc := experiments.DefaultPhasesConfig()
		if *horizon > 0 {
			pc.Horizon = *horizon
		}
		if *seed != 0 {
			pc.Seed = *seed
		}
		if *every > 0 {
			pc.Every = *every
		}
		experiments.RenderPhases(stdout, pc, experiments.Phases(pc))
	})
	return status
}
