// Package linttest verifies pfair's analyzers against testdata
// packages, in the style of golang.org/x/tools' analysistest but on the
// stdlib-only lint framework: each testdata source marks the lines an
// analyzer must flag with trailing comments of the form
//
//	// want `regexp` `another regexp`
//
// and Run fails the test unless the analyzer reports exactly those
// diagnostics — every `want` clause must be matched by a diagnostic on
// its line, and every diagnostic must be claimed by a clause. Lines
// without a comment are negative cases: code the analyzer must accept.
//
// The marker is recognized anywhere inside a comment, not only at its
// start, so analyzers that anchor diagnostics at a comment itself (the
// staleannot audit reports the rotten annotation's own line) can embed
// the expectation in the flagged comment:
//
//	sum := 0 //pfair:allowpanic validated upstream // want `stale ...`
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pfair/internal/lint"
)

// A Case pairs one analyzer with the go-list pattern (relative to the
// directory passed to Run) of the testdata package that exercises it.
type Case struct {
	Analyzer *lint.Analyzer
	Pattern  string
}

// Run loads every case's testdata package in a single pass — the
// type-checked standard library is shared across cases, which is what
// makes running five analyzer suites affordable — then checks each
// analyzer against its package in a subtest named after the analyzer.
//
//pfair:keep test seam: internal/lint's tests check every analyzer against its testdata through it
func Run(t *testing.T, dir string, cases []Case) {
	t.Helper()
	patterns := make([]string, 0, len(cases))
	for _, c := range cases {
		patterns = append(patterns, c.Pattern)
	}
	pkgs, err := lint.Load(dir, patterns)
	if err != nil {
		t.Fatalf("loading testdata packages: %v", err)
	}
	for _, c := range cases {
		pkg := findPackage(pkgs, c.Pattern)
		if pkg == nil {
			t.Errorf("no loaded package matches pattern %q", c.Pattern)
			continue
		}
		c := c
		t.Run(c.Analyzer.Name, func(t *testing.T) {
			check(t, pkg, c.Analyzer)
		})
	}
}

// findPackage resolves a relative pattern like "./testdata/src/x" to
// the loaded package whose import path ends in that directory.
func findPackage(pkgs []*lint.Package, pattern string) *lint.Package {
	suffix := strings.TrimPrefix(pattern, "./")
	for _, p := range pkgs {
		if strings.HasSuffix(p.Path, "/"+suffix) || p.Path == suffix {
			return p
		}
	}
	return nil
}

// An expectation is one `want` clause: the analyzer must report a
// diagnostic at file:line whose message matches re.
type expectation struct {
	file string // base name of the source file
	line int
	re   *regexp.Regexp
	used bool
}

// wantMarker introduces an expectation, anywhere inside a comment, and
// wantClause extracts its backquoted regexps.
const wantMarker = "// want "

var wantClause = regexp.MustCompile("`([^`]*)`")

// check runs one analyzer over one package and diffs its diagnostics
// against the package's expectations.
func check(t *testing.T, pkg *lint.Package, a *lint.Analyzer) {
	t.Helper()
	for _, problem := range diff(t, pkg, a) {
		t.Error(problem)
	}
}

// diff returns one problem string per disagreement between the
// analyzer's diagnostics and the package's `want` expectations: an
// unexpected diagnostic, an unmatched clause, or a suite with no
// clauses at all (which would pass vacuously). check reports them;
// the harness's own tests assert on them directly.
func diff(t *testing.T, pkg *lint.Package, a *lint.Analyzer) []string {
	t.Helper()
	var problems []string
	wants := expectations(t, pkg)
	if len(wants) == 0 {
		return []string{pkg.Path + ": testdata declares no `want` expectations; the suite would pass vacuously"}
	}
	diags := lint.RunAnalyzers([]*lint.Package{pkg}, []*lint.Analyzer{a})
	for _, d := range diags {
		if !claim(wants, d) {
			problems = append(problems, fmt.Sprintf("unexpected diagnostic: %s", d))
		}
	}
	for _, w := range wants {
		if !w.used {
			problems = append(problems, fmt.Sprintf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re))
		}
	}
	return problems
}

// expectations parses every `// want` comment in the package.
func expectations(t *testing.T, pkg *lint.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, wantMarker)
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				clauses := wantClause.FindAllStringSubmatch(c.Text[idx:], -1)
				if len(clauses) == 0 {
					t.Errorf("%s:%d: `want` comment with no backquoted pattern", pos.Filename, pos.Line)
					continue
				}
				for _, m := range clauses {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
						continue
					}
					wants = append(wants, &expectation{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
					})
				}
			}
		}
	}
	return wants
}

// claim marks the first unused expectation matching d and reports
// whether one existed.
func claim(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.used && w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.used = true
			return true
		}
	}
	return false
}
