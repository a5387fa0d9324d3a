package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"pfair/internal/lint/callgraph"
)

// HotClosure is the interprocedural counterpart of HotPath: instead of
// trusting every hot function to carry its own //pfair:hotpath
// annotation, it computes the transitive closure of calls from the
// annotated roots over the whole-program call graph (static calls,
// interface dispatch by type-set, function-value calls — see
// internal/lint/callgraph) and reports two kinds of rot:
//
//   - an unannotated callee: a function declared in the program,
//     reachable from a hot root, that carries neither //pfair:hotpath
//     (bringing it under HotPath's per-function allocation rules) nor
//     //pfair:allowalloc <reason> (declaring it a sanctioned allocation
//     point — amortized work like job release, or a cold fallback the
//     steady state never takes). The diagnostic shows a shortest call
//     chain from a root so the new edge is obvious.
//   - a stale annotation: an unexported //pfair:hotpath function that no
//     longer appears in the closure of any externally drivable root
//     (exported or address-taken annotated function). Its annotation
//     enforces nothing and should go, along with the dead code.
//
// Roots are the //pfair:hotpath functions that are exported or
// address-taken — the ones benchmarks, the engine, and other packages
// can actually drive; unexported annotated helpers join the closure only
// by being called. Call sites annotated //pfair:coldcall <reason> are
// excluded from traversal: they name branches the steady state does not
// take (error paths, one-shot growth, detach-time migration), and the
// reason documents why. Edges into functions without loaded source
// (stdlib) end traversal there; the per-function HotPath rules already
// police the stdlib calls that allocate (fmt, math/rand's constructors).
var HotClosure = &Analyzer{
	Name: "hotclosure",
	Doc: "walk the call graph from //pfair:hotpath roots and flag reachable " +
		"functions with neither //pfair:hotpath nor //pfair:allowalloc <reason>, " +
		"plus unexported annotated functions no longer reachable from any root " +
		"(cut steady-state-cold call sites with //pfair:coldcall <reason>)",
	RunProgram: runHotClosure,
}

func runHotClosure(pass *ProgramPass) {
	g := pass.Graph
	// Annotated and sanctioned sets, discovered from declarations.
	hot := map[*callgraph.Node]bool{}
	sanctioned := map[*callgraph.Node]bool{}
	var roots []*callgraph.Node
	for _, n := range g.DeclaredNodes() {
		if funcHasDirective(n.Decl, "hotpath") {
			hot[n] = true
			if n.Func.Exported() || n.AddressTaken {
				roots = append(roots, n)
			}
		}
		if funcHasDirective(n.Decl, "allowalloc") {
			sanctioned[n] = true
			if !funcDirectiveReason(n.Decl, "allowalloc") {
				pass.Reportf(n.Decl.Name.Pos(), "//pfair:allowalloc needs a reason")
			}
		}
	}

	// BFS from the roots, recording a parent edge per node for chain
	// reconstruction. Cold call sites are cut; out-of-program callees
	// are terminal.
	parent := map[*callgraph.Node]*callgraph.Edge{}
	visited := map[*callgraph.Node]bool{}
	queue := make([]*callgraph.Node, 0, len(roots))
	for _, r := range roots {
		visited[r] = true
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.Decl == nil {
			continue
		}
		lintPkg := pass.Pass(pkgOf(pass, n))
		for _, e := range n.Out {
			if visited[e.Callee] {
				continue
			}
			if coldCall(lintPkg, n.File, e.Site.Pos()) {
				continue
			}
			visited[e.Callee] = true
			parent[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}

	for _, n := range g.DeclaredNodes() {
		switch {
		case visited[n] && !hot[n] && !sanctioned[n]:
			pass.Reportf(n.Decl.Name.Pos(),
				"%s is reachable from the //pfair:hotpath closure (%s) but carries no annotation; "+
					"add //pfair:hotpath, justify with //pfair:allowalloc <reason>, or cut the cold call site with //pfair:coldcall <reason>",
				n.Name(), chain(parent, n))
		case hot[n] && !visited[n] && !n.Func.Exported() && !n.AddressTaken:
			pass.Reportf(n.Decl.Name.Pos(),
				"%s is annotated //pfair:hotpath but is no longer reachable from any hot-path root; "+
					"remove the stale annotation or the dead code", n.Name())
		}
	}
}

// pkgOf finds the loaded *Package a node belongs to.
func pkgOf(pass *ProgramPass, n *callgraph.Node) *Package {
	for _, p := range pass.Pkgs {
		if p.Path == n.Pkg.Path {
			return p
		}
	}
	return nil
}

// coldCall reports whether a //pfair:coldcall annotation with a reason
// covers the call at pos. An annotation without a reason does not cut
// the edge; staleannot separately rejects reasonless forms.
func coldCall(p *Pass, file *ast.File, pos token.Pos) bool {
	found, hasReason := p.annotated(file, pos, "coldcall")
	return found && hasReason
}

// chain renders the shortest discovered call path to n, rooted at an
// annotated function: "Step → refill → grow (interface)".
func chain(parent map[*callgraph.Node]*callgraph.Edge, n *callgraph.Node) string {
	var names []string
	kind := ""
	for cur := n; ; {
		e := parent[cur]
		names = append(names, cur.Func.Name())
		if e == nil {
			break
		}
		if cur == n {
			kind = e.Kind.String()
		}
		cur = e.Caller
		if len(names) > 12 {
			names = append(names, "...")
			break
		}
	}
	// Reverse into root-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	s := "via " + strings.Join(names, " → ")
	if kind != "" && kind != "static" {
		s += ", " + kind + " call"
	}
	return s
}

// funcDirectiveReason reports whether fd's doc-comment directive name
// carries a non-empty reason.
func funcDirectiveReason(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	want := directivePrefix + name + " "
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, want) && strings.TrimSpace(strings.TrimPrefix(c.Text, want)) != "" {
			return true
		}
	}
	return false
}

// allocationSites returns the positions of allocation sources HotPath
// would flag in body, using the same rules (closures, go statements,
// fmt and math/rand's constructors, make/new, escaping composite
// literals, appends to non-preallocated slices). Shared by staleannot
// to decide whether an //pfair:allowalloc annotation still has a
// triggering construct.
func allocationSites(p *Pass, fd *ast.FuncDecl) []token.Pos {
	var sites []token.Pos
	prealloc := preallocLocals(p, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sites = append(sites, n.Pos())
			return false
		case *ast.GoStmt:
			sites = append(sites, n.Pos())
		case *ast.UnaryExpr:
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
				sites = append(sites, lit.Pos())
				return false
			}
		case *ast.CompositeLit:
			if tv, ok := p.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					sites = append(sites, n.Pos())
				}
			}
		case *ast.CallExpr:
			if isPanicCall(p.Info, n) {
				return false
			}
			if fn := calleeFunc(p.Info, n); fn != nil && allocatingStdlib(fn) != "" {
				sites = append(sites, n.Pos())
				return true
			}
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			switch id.Name {
			case "make", "new":
				sites = append(sites, n.Pos())
			case "append":
				if len(n.Args) == 0 || !isPreallocTarget(p, prealloc, n.Args[0]) {
					sites = append(sites, n.Pos())
				}
			}
		}
		return true
	})
	return sites
}

// isPanicCall reports whether call invokes the builtin panic. Allocation
// sources inside a panic's argument (typically fmt.Sprintf formatting
// the message) are exempt from the hot-path rules: that code runs once,
// while the program is dying, and never in steady state.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// preallocLocals is checkHotFunc's first pass, factored out: locals
// assigned from slice expressions, struct fields, or indexed elements of
// one reuse preallocated storage.
func preallocLocals(p *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	prealloc := map[types.Object]bool{}
	record := func(lhs, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		switch r := ast.Unparen(rhs).(type) {
		case *ast.SliceExpr, *ast.SelectorExpr, *ast.IndexExpr:
			prealloc[obj] = true
		case *ast.Ident:
			if other := p.Info.Uses[r]; other != nil && prealloc[other] {
				prealloc[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				record(as.Lhs[i], as.Rhs[i])
			}
		}
		return true
	})
	return prealloc
}
