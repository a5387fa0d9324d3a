package lint_test

import (
	"testing"

	"pfair/internal/lint"
	"pfair/internal/lint/linttest"
)

// TestAnalyzers checks every analyzer against its seeded testdata
// package under testdata/src: each must report exactly the violations
// marked by `// want` comments and stay silent on the adjacent allowed
// patterns (annotated escapes, sorted iteration, buffer reuse, handled
// results). The testdata directories are invisible to ./... package
// patterns, so the deliberate violations never reach the real build or
// pfairlint runs.
func TestAnalyzers(t *testing.T) {
	linttest.Run(t, ".", []linttest.Case{
		{Analyzer: lint.RatFloat, Pattern: "./testdata/src/ratfloat"},
		{Analyzer: lint.Determinism, Pattern: "./testdata/src/determinism"},
		{Analyzer: lint.HotPath, Pattern: "./testdata/src/hotpath"},
		{Analyzer: lint.NoPanic, Pattern: "./testdata/src/nopanic"},
		{Analyzer: lint.ErrCheckRat, Pattern: "./testdata/src/errcheckrat"},
		{Analyzer: lint.HotClosure, Pattern: "./testdata/src/hotclosure"},
		{Analyzer: lint.FloatFlow, Pattern: "./testdata/src/floatflow"},
		{Analyzer: lint.Reach, Pattern: "./testdata/src/reach"},
		{Analyzer: lint.StaleAnnot, Pattern: "./testdata/src/staleannot"},
		{Analyzer: lint.StaleAnnot, Pattern: "./testdata/src/keep"},
	})
}
