// Package lint implements pfair's repo-specific static analyzers: the
// invariants that make the schedulers' exactness and determinism claims
// trustworthy are enforced here, before the differential fuzzer
// (internal/fuzz) would have to discover their violation dynamically.
//
// The per-package analyzers are:
//
//   - ratfloat: no float arithmetic, comparison, or conversion on the
//     packages that compute weights and lags; Rat.Float/Acc.Float are
//     callable only from the designated reporting packages.
//   - determinism: no map iteration, global math/rand, or wall-clock
//     reads in packages whose output must replay byte-identically.
//   - hotpath: functions annotated //pfair:hotpath must stay
//     allocation-free (the static counterpart of BenchmarkStepAllocs).
//   - nopanic: library packages under internal/ return errors; panics
//     need an explicit justification.
//   - errcheckrat: fallible rational/taskgen/partition results must not
//     be silently discarded.
//   - staleannot: every //pfair: annotation must still have its
//     triggering construct; unknown directives are typos.
//
// Two more run over the whole loaded program and the call graph built
// by internal/lint/callgraph:
//
//   - hotclosure: the transitive closure of calls from //pfair:hotpath
//     roots must be annotated (hotpath or a reasoned allowalloc), and
//     annotations no root reaches are stale; //pfair:coldcall <reason>
//     cuts call sites the steady state never takes.
//   - floatflow: float64 taint followed interprocedurally into integer
//     and rational state; a reasoned //pfair:allowfloat at the sink is
//     an audited, sanitizing boundary.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// only, so the linter needs no module downloads. Escape hatches are
// source annotations, never linter config, so every exception is
// visible and justified at the use site:
//
//	//pfair:hotpath                 mark a function allocation-critical
//	//pfair:allowalloc <reason>     sanction a hot-closure function that
//	                                allocates (amortized or tooling-only)
//	//pfair:coldcall <reason>       cut a call site from the hot closure
//	//pfair:allowpanic <reason>     permit a panic (invariant/misuse check)
//	//pfair:orderinvariant <reason> permit a map iteration whose result
//	                                does not depend on order
//	//pfair:allowfloat <reason>     permit float use (reporting bridges,
//	                                inherently irrational bounds, audited
//	                                laundering boundaries)
//	//pfair:allowtime <reason>      permit wall-clock reads (measurement
//	                                paths gated off during simulation)
//
// A line annotation covers its own source line and the line it
// immediately precedes; the marker forms also apply to a whole function
// when placed in its doc comment. All reason-carrying forms are invalid
// without a reason, so exceptions cannot be waved through silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"pfair/internal/lint/callgraph"
)

// An Analyzer describes one invariant checker. Exactly one of Run and
// RunProgram is set: per-package analyzers see one package at a time,
// interprocedural analyzers see the whole loaded program and its call
// graph at once.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is the one-paragraph description printed by pfairlint -help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass)
	// RunProgram applies the analyzer to the whole program.
	RunProgram func(*ProgramPass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the package.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees (comments included).
	Files []*ast.File
	// Path is the package's import path. Analyzers classify packages
	// (restricted vs reporting) by this path.
	Path string
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's results for Files.
	Info *types.Info

	diags *[]Diagnostic
	notes map[*ast.File]noteIndex
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A ProgramPass is one interprocedural analyzer's view of the whole
// loaded program: every package plus the call graph built over them.
type ProgramPass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps positions for every file in the program.
	Fset *token.FileSet
	// Pkgs are the loaded packages, in load order.
	Pkgs []*Package
	// Graph is the whole-program call graph (see internal/lint/callgraph
	// for the dispatch approximations it makes).
	Graph *callgraph.Graph

	diags  *[]Diagnostic
	passes map[*Package]*Pass
}

// Pass returns the per-package Pass for pkg, so program analyzers can
// use the annotation helpers (annotated, notesFor) with pkg's files.
func (p *ProgramPass) Pass(pkg *Package) *Pass {
	if sub, ok := p.passes[pkg]; ok {
		return sub
	}
	sub := &Pass{
		Analyzer: p.Analyzer,
		Fset:     p.Fset,
		Files:    pkg.Files,
		Path:     pkg.Path,
		Pkg:      pkg.Pkg,
		Info:     pkg.Info,
		diags:    p.diags,
	}
	if p.passes == nil {
		p.passes = map[*Package]*Pass{}
	}
	p.passes[pkg] = sub
	return sub
}

// Reportf records a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer so
// the linter's own output is deterministic regardless of package or
// analyzer scheduling.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// directivePrefix introduces every pfair source annotation.
const directivePrefix = "//pfair:"

// A note is one parsed //pfair: annotation.
type note struct {
	name   string // e.g. "allowpanic"
	reason string // text after the name, trimmed
	line   int    // line the comment itself is on
}

// noteIndex maps a source line to the annotations that cover it: an
// annotation covers its own line (end-of-line form) and the following
// line (own-line form above a statement).
type noteIndex map[int][]note

// notesFor lazily builds and returns the annotation index for file.
func (p *Pass) notesFor(file *ast.File) noteIndex {
	if idx, ok := p.notes[file]; ok {
		return idx
	}
	idx := noteIndex{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			body := strings.TrimPrefix(c.Text, directivePrefix)
			name, reason, _ := strings.Cut(body, " ")
			line := p.Fset.Position(c.Pos()).Line
			n := note{name: name, reason: strings.TrimSpace(reason), line: line}
			idx[line] = append(idx[line], n)
			idx[line+1] = append(idx[line+1], n)
		}
	}
	if p.notes == nil {
		p.notes = map[*ast.File]noteIndex{}
	}
	p.notes[file] = idx
	return idx
}

// annotated reports whether a //pfair:<name> annotation covers pos, and
// whether that annotation carries a non-empty reason. It checks, in
// order: a line annotation at pos, and the doc comment of the function
// declaration enclosing pos.
func (p *Pass) annotated(file *ast.File, pos token.Pos, name string) (found, hasReason bool) {
	line := p.Fset.Position(pos).Line
	for _, n := range p.notesFor(file)[line] {
		if n.name == name {
			return true, n.reason != ""
		}
	}
	if fd := p.enclosingFunc(file, pos); fd != nil && fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			body := strings.TrimPrefix(c.Text, directivePrefix)
			n, reason, _ := strings.Cut(body, " ")
			if n == name {
				return true, strings.TrimSpace(reason) != ""
			}
		}
	}
	return false, false
}

// enclosingFunc returns the innermost function declaration containing pos.
func (p *Pass) enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// funcHasDirective reports whether fd's doc comment contains the given
// bare //pfair:<name> directive.
func funcHasDirective(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	want := directivePrefix + name
	for _, c := range fd.Doc.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
			return true
		}
	}
	return false
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil
// for builtins, type conversions, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isFloat reports whether t's core type is a floating-point basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// hasPrefixAny reports whether path equals or is a child of any of the
// given import-path prefixes.
func hasPrefixAny(path string, prefixes ...string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
