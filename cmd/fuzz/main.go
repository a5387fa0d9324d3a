// Command fuzz runs the differential scheduling oracle: it generates
// random task systems and cross-checks every scheduler pair that must
// agree on feasibility (see internal/fuzz). Failures are shrunk to
// minimal reproducers and printed with one-line replay keys.
//
// Usage:
//
//	go run ./cmd/fuzz                       # 150 cases per kind, seed 1
//	go run ./cmd/fuzz -n 1000 -seed 7       # a bigger campaign
//	go run ./cmd/fuzz -kinds fullutil,epdf  # restrict the pairings
//	go run ./cmd/fuzz -mutant pd2-nobbit    # prove the oracle catches a
//	                                        # broken PD² (fault injection)
//	go run ./cmd/fuzz -replay fullutil/1/42 # re-run one failing case
//
// After the summary line, the campaign's throughput ("N cases in X s
// (Y cases/s)") goes to stderr; stdout is unchanged by it. The exit status
// is 1 if any unexplained disagreement was found, and 2 on a usage error:
// an undefined flag, a bad flag value, -n ≤ 0, or a positional argument.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pfair/internal/fuzz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams made explicit,
// so tests can drive it. It returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fuzz [flags]")
		fs.PrintDefaults()
	}
	var (
		n        = fs.Int64("n", 150, "cases to generate per kind (> 0)")
		seed     = fs.Int64("seed", 1, "campaign base seed")
		workers  = fs.Int("workers", 0, "worker pool size (0 = all cores)")
		kindsArg = fs.String("kinds", "", "comma-separated kinds (default all: fullutil,epdf,edf,rm,partition,dynamic,is,dynplane)")
		mutArg   = fs.String("mutant", "", "fault injection: substitute pd2-nobbit or epdf for PD²")
		replay   = fs.String("replay", "", "re-run a single case by its kind/seed/trial key")
		noShrink = fs.Bool("no-shrink", false, "skip reproducer minimization")
		verbose  = fs.Bool("v", false, "describe every failing case in full")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fuzz takes no positional arguments; got %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *n <= 0 {
		fmt.Fprintf(stderr, "-n must be positive; got %d\n", *n)
		fs.Usage()
		return 2
	}

	mutant, err := fuzz.ParseMutant(*mutArg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *replay != "" {
		kind, s, trial, err := fuzz.ParseReplay(*replay)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		c := fuzz.GenCase(kind, s, trial)
		fmt.Fprintln(stdout, c.Describe())
		out := fuzz.CheckCase(c, mutant)
		if out.Explained > 0 {
			fmt.Fprintf(stdout, "explained disagreements: %d\n", out.Explained)
		}
		if len(out.Violations) == 0 {
			fmt.Fprintln(stdout, "PASS")
			return 0
		}
		for _, v := range out.Violations {
			fmt.Fprintln(stdout, "  "+v)
		}
		if !*noShrink {
			sc := fuzz.Shrink(c, mutant)
			fmt.Fprintf(stdout, "shrunk: %s\n", reproducer(&sc))
		}
		return 1
	}

	var kinds []fuzz.Kind
	if *kindsArg != "" {
		for _, name := range strings.Split(*kindsArg, ",") {
			k, err := fuzz.ParseKind(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			kinds = append(kinds, k)
		}
	}

	start := time.Now() //pfair:allowtime cmd-layer measurement, reported to stderr only
	rep := fuzz.Run(fuzz.Config{
		Seed:     *seed,
		Trials:   *n,
		Kinds:    kinds,
		Workers:  *workers,
		Mutant:   mutant,
		NoShrink: *noShrink,
	})

	nk := len(kinds)
	if nk == 0 {
		nk = len(fuzz.AllKinds())
	}
	fmt.Fprintf(stdout, "fuzz: %d task systems across %d kinds (seed %d): %d unexplained disagreements, %d explained EPDF counterexamples\n",
		rep.Cases, nk, *seed, len(rep.Failures), rep.Explained)
	// Throughput goes to stderr so stdout stays a pure function of the
	// campaign; the time includes shrinking any failures.
	elapsed := time.Since(start).Seconds() //pfair:allowtime cmd-layer measurement, reported to stderr only
	fmt.Fprintf(stderr, "%d cases in %.2f s (%.0f cases/s)\n", rep.Cases, elapsed, float64(rep.Cases)/elapsed)

	for _, f := range rep.Failures {
		fmt.Fprintf(stdout, "\nFAIL %s\n", f.Case.Describe())
		max := 5
		if *verbose {
			max = len(f.Violations)
		}
		for i, v := range f.Violations {
			if i == max {
				fmt.Fprintf(stdout, "  … and %d more\n", len(f.Violations)-max)
				break
			}
			fmt.Fprintln(stdout, "  "+v)
		}
		if f.Shrunk != nil {
			fmt.Fprintf(stdout, "  shrunk reproducer: %s\n", reproducer(f.Shrunk))
		}
		fmt.Fprintf(stdout, "  replay: go run ./cmd/fuzz -replay %s", f.Case.Replay())
		if *mutArg != "" {
			fmt.Fprintf(stdout, " -mutant %s", *mutArg)
		}
		fmt.Fprintln(stdout)
	}
	if len(rep.Failures) > 0 {
		return 1
	}
	return 0
}

// reproducer renders a shrunk case in full, so that rebuilt by hand it
// still fails: Describe's tasks and churn script, plus IS delay tables.
func reproducer(c *fuzz.Case) string {
	if len(c.Delays) == 0 {
		return c.Describe()
	}
	return fmt.Sprintf("%s delays=%v", c.Describe(), c.Delays)
}
