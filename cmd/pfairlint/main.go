// Command pfairlint runs the repo-specific invariant analyzers of
// internal/lint over the given packages (default ./...) and exits
// non-zero if any invariant is violated. It is the static half of the
// repository's exactness and determinism guarantees; `make lint` wires
// it into the check target and CI runs it on every push.
//
// Usage:
//
//	pfairlint [-only name[,name...]] [-json] [-list] [packages...]
//
// The analyzers: ratfloat, determinism, hotpath, nopanic, errcheckrat
// run per package; hotclosure, floatflow, reach, and staleannot run over
// the whole loaded program (hotclosure, floatflow and reach follow the
// interprocedural call graph built by internal/lint/callgraph; reach
// reports functions no root reaches, so lint the whole module). See
// internal/lint for the invariant each enforces and the //pfair: source
// annotations that grant justified exceptions.
//
// Human-readable diagnostics go to standard error, one per line, in
// file:line:col order, so they never mix with machine output. With
// -json the diagnostics are additionally encoded to standard output as
// a JSON array of objects with the fields "file", "line", "col",
// "analyzer", and "message" (an empty array when the program is clean).
//
// Exit codes:
//
//	0  no violations
//	1  one or more violations reported
//	2  usage error (unknown analyzer) or package load failure
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pfair/internal/lint"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json wire form of one diagnostic.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run executes the linter with the given working directory, arguments,
// and output streams, returning the process exit code. main is a thin
// wrapper so tests can drive the full flag-parsing, loading, and
// reporting path in-process.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pfairlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	asJSON := fs.Bool("json", false, "also emit diagnostics as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			names := make([]string, 0, len(keep))
			for name := range keep { //pfair:orderinvariant collected and sorted before printing
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(stderr, "pfairlint: unknown analyzer %q\n", name)
			}
			return 2
		}
		analyzers = sel
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "pfairlint:", err)
		return 2
	}
	diags := lint.RunAnalyzers(pkgs, analyzers)
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "pfairlint:", err)
			return 2
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "pfairlint: %d violation(s) in %d package(s) checked\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
