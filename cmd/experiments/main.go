// Command experiments regenerates the data behind every figure in the
// paper's evaluation. Each subcommand prints a TSV table (or an ASCII
// diagram) to stdout.
//
// Usage:
//
//	experiments [flags] fig1|fig2a|fig2b|fig3|fig4|fig5|quantum|phases|all
//
// Flags:
//
//	-sets N     task sets per data point (default: scaled-down defaults)
//	-horizon H  slots simulated per set in the Figure 2 measurement
//	-full       use the paper's full protocol (1000 sets/point, 10⁶-slot
//	            horizons) — fig3/fig4 take about a minute of CPU, fig2a/
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
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	rtrace "runtime/trace"
	"time"

	"pfair/internal/experiments"
	"pfair/internal/obs"
)

func main() {
	sets := flag.Int("sets", 0, "task sets per data point (0 = default)")
	horizon := flag.Int64("horizon", 0, "slots per set for fig2 (0 = default)")
	full := flag.Bool("full", false, "run the paper's full protocol (slow)")
	seed := flag.Int64("seed", 0, "base RNG seed (0 = default)")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines per sweep (1 = serial)")
	measured := flag.Bool("measured", false, "fig3/fig4: measure scheduling costs on this machine first (the paper's methodology) instead of the calibrated default models")
	gotrace := flag.String("gotrace", "", "write a runtime/trace of the run to this file (one region per figure)")
	metrics := flag.Bool("metrics", false, "print per-figure wall-time and allocation summaries to stderr")
	every := flag.Int64("every", 0, "phases: profile one engine step in every N (0 = default)")
	flag.Parse()

	if *gotrace != "" {
		f, err := os.Create(*gotrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gotrace:", err)
			os.Exit(1)
		}
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, "gotrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer rtrace.Stop()
	}

	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
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
	run := func(name string, fn func()) {
		if cmd != name && cmd != "all" {
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
		fmt.Fprintf(os.Stderr, "# metrics %s\n", name)
		if err := reg.WriteSummary(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
		}
	}
	known := map[string]bool{"fig1": true, "fig2a": true, "fig2b": true, "fig3": true, "fig4": true, "fig5": true, "quantum": true, "response": true, "sync": true, "fairness": true, "phases": true, "all": true}
	if !known[cmd] {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}

	run("fig1", func() {
		for _, fig := range []func() (string, error){experiments.Fig1a, experiments.Fig1b} {
			out, err := fig()
			if err != nil {
				fmt.Fprintln(os.Stderr, "fig1:", err)
				os.Exit(1)
			}
			fmt.Print(out)
			fmt.Println()
		}
	})
	run("fig2a", func() {
		experiments.RenderFig2a(os.Stdout, experiments.Fig2a(f2))
	})
	run("fig2b", func() {
		experiments.RenderFig2b(os.Stdout, experiments.Fig2b(f2))
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
		fmt.Print(modelsLine)
		render(os.Stdout, f3.Ns, fig34)
	}
	run("fig3", func() { runFig34(experiments.RenderFig3) })
	run("fig4", func() { runFig34(experiments.RenderFig4) })
	run("fig5", func() {
		experiments.RenderFig5(os.Stdout, experiments.Fig5Workers(90, *workers))
	})
	run("response", func() {
		rc := experiments.DefaultResponseConfig()
		if *sets > 0 {
			rc.Sets = *sets
		}
		if *seed != 0 {
			rc.Seed = *seed
		}
		rc.Workers = *workers
		experiments.RenderResponse(os.Stdout, experiments.ResponseTimes(rc))
	})
	run("fairness", func() {
		fc := experiments.DefaultFairnessConfig()
		if *seed != 0 {
			fc.Seed = *seed
		}
		fc.Workers = *workers
		experiments.RenderFairness(os.Stdout, experiments.Fairness(fc))
	})
	run("sync", func() {
		sc := experiments.DefaultSyncConfig()
		if *sets > 0 {
			sc.Sets = *sets
		}
		if *seed != 0 {
			sc.Seed = *seed
		}
		sc.Workers = *workers
		experiments.RenderSync(os.Stdout, experiments.SyncComparison(sc), sc.Sets)
	})
	run("quantum", func() {
		experiments.RenderQuantum(os.Stdout, experiments.QuantumSweep(qs))
	})
	run("phases", func() {
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
		experiments.RenderPhases(os.Stdout, pc, experiments.Phases(pc))
	})
}
