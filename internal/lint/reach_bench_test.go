package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// reachBenchDiags runs Reach over testdata/src/reachbench with the
// benchmark sources read from its subdirectory sub.
func reachBenchDiags(t *testing.T, sub string) []Diagnostic {
	t.Helper()
	defer func(old string) { benchDir = old }(benchDir)
	benchDir = filepath.Join("internal", "lint", "testdata", "src", "reachbench", sub)
	pkgs, err := Load(".", []string{"./testdata/src/reachbench"})
	if err != nil {
		t.Fatal(err)
	}
	return RunAnalyzers(pkgs, []*Analyzer{Reach})
}

// TestReachResolvesBenchSelectorsByType: the benchmark's calls reach
// the methods they resolve to, Meter.Value and, through the Gauge
// interface, dial.Read, and what those call; tally.Value, which only
// shares a name with the benchmark's call, is reported.
func TestReachResolvesBenchSelectorsByType(t *testing.T) {
	diags := reachBenchDiags(t, "bench")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "reachbench.(tally).Value is reached by no root") {
		t.Fatalf("got %v, want one diagnostic, for tally.Value", diags)
	}
}

// TestReachReportsUncheckableBench: benchmark sources that do not
// type-check against the program give one diagnostic saying so, at the
// error, rather than a report of everything only the benchmark calls.
func TestReachReportsUncheckableBench(t *testing.T) {
	diags := reachBenchDiags(t, "badbench")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "undefined: rb.Missing") ||
		filepath.Base(diags[0].Pos.Filename) != "bench.go" {
		t.Fatalf("got %v, want one diagnostic at badbench/bench.go for rb.Missing", diags)
	}
}
