package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// knownDirectives is the complete //pfair: annotation grammar, mapping
// each directive to a short description of the construct that must exist
// for the annotation to mean anything.
var knownDirectives = map[string]string{
	"hotpath":        "function declaration (doc-comment form)",
	"allowpanic":     "panic call",
	"allowfloat":     "float use, float conversion, or internal/rational call",
	"allowtime":      "time.Now/time.Since call",
	"orderinvariant": "map iteration",
	"allowalloc":     "function that allocates (doc-comment form)",
	"coldcall":       "call expression",
	"keep":           "function no root reaches (doc-comment form)",
}

// StaleAnnot audits every //pfair: annotation in the program: a
// suppression whose triggering construct no longer exists is not
// harmless — it is a hole in the invariant story that silently widens
// as code moves, and it teaches readers that annotations are noise.
// For each directive occurrence the analyzer checks that the construct
// it suppresses still exists in its scope (the annotation's own line and
// the next, or the whole function for doc-comment forms):
//
//   - allowpanic without a panic, allowtime without a wall-clock read,
//     orderinvariant without a map range, coldcall without a call, and
//     allowfloat without any float-typed expression, float conversion,
//     or internal/rational call in scope are reported as stale;
//   - allowalloc on a function with no allocation source (by the same
//     rules HotPath applies) is stale — the function earned back its
//     //pfair:hotpath;
//   - hotpath and allowalloc are whole-function markers: a line form
//     attached to anything but a function's doc comment marks nothing
//     and is reported;
//   - keep is a whole-function marker too, and must carry a reason; a
//     keep on a function that a real root (main, init, pfair.go,
//     perfbench) already reaches is stale — the function no longer needs
//     keeping, and the annotation would hide the day it does;
//   - a //pfair: directive whose name is not in the grammar is reported
//     (a typo like //pfair:allowpannic suppresses nothing silently).
//
// The check is structural, not policy-aware: an allowfloat in a package
// ratfloat exempts is still audited — if the float it excuses is gone,
// the annotation goes too. Whether a live //pfair:hotpath is still
// reachable from the hot path is HotClosure's reachability side, not
// this analyzer's.
var StaleAnnot = &Analyzer{
	Name: "staleannot",
	Doc: "flag //pfair: annotations whose triggering construct no longer " +
		"exists (dead suppressions, keeps on reached functions) and directives " +
		"outside the known grammar",
	RunProgram: runStaleAnnot,
}

func runStaleAnnot(pass *ProgramPass) {
	for _, pkg := range pass.Pkgs {
		staleInPackage(pass.Pass(pkg))
	}
	r := pass.reach()
	if r == nil {
		return
	}
	for _, n := range pass.Graph.DeclaredNodes() {
		if r.roots[n] && funcHasDirective(n.Decl, "keep") {
			pass.Reportf(n.Decl.Name.Pos(), "stale //pfair:keep on %s: a root already reaches it — remove the annotation", n.Name())
		}
	}
}

// staleInPackage audits the annotations of one package.
func staleInPackage(pass *Pass) {
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				body := strings.TrimPrefix(c.Text, directivePrefix)
				name, _, _ := strings.Cut(body, " ")
				checkDirective(pass, file, c, cg, name)
			}
		}
	}
}

// checkDirective validates one directive occurrence.
func checkDirective(pass *Pass, file *ast.File, c *ast.Comment, group *ast.CommentGroup, name string) {
	if _, ok := knownDirectives[name]; !ok {
		pass.Reportf(c.Pos(), "unknown directive //pfair:%s (known: %s)", name, directiveNames())
		return
	}
	// Doc-comment form: the group is some function's doc comment, so
	// the directive covers the whole function.
	if fd := docOwner(file, group); fd != nil {
		checkDocForm(pass, file, c, fd, name)
		return
	}
	if name == "hotpath" || name == "allowalloc" || name == "keep" {
		pass.Reportf(c.Pos(), "//pfair:%s marks whole functions; attach it to the function's doc comment", name)
		return
	}
	// Line form: the annotation covers its own line and the next.
	line := pass.Fset.Position(c.Pos()).Line
	nodes := nodesOnLines(pass, file, line, line+1)
	if !triggerExists(pass, name, nodes) {
		pass.Reportf(c.Pos(), "stale //pfair:%s: no %s on the annotated line; the construct it suppressed is gone — remove the annotation", name, knownDirectives[name])
	}
}

// checkDocForm validates a directive in a function's doc comment.
func checkDocForm(pass *Pass, file *ast.File, c *ast.Comment, fd *ast.FuncDecl, name string) {
	switch name {
	case "hotpath":
		if fd.Body == nil {
			pass.Reportf(c.Pos(), "stale //pfair:hotpath: the function has no body to check")
		}
	case "allowalloc":
		if fd.Body == nil || len(allocationSites(pass, fd)) == 0 {
			pass.Reportf(c.Pos(), "stale //pfair:allowalloc on %s: the function no longer allocates; it can carry //pfair:hotpath instead", fd.Name.Name)
		}
	case "coldcall":
		pass.Reportf(c.Pos(), "//pfair:coldcall applies to call lines, not whole functions; annotate the cold call site itself")
	case "keep":
		if !funcDirectiveReason(fd, "keep") {
			pass.Reportf(fd.Name.Pos(), "//pfair:keep on %s needs a reason naming the claim, oracle or seam it serves", fd.Name.Name)
		}
	default:
		if fd.Body == nil {
			pass.Reportf(c.Pos(), "stale //pfair:%s: the function has no body", name)
			return
		}
		var nodes []ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n != nil {
				nodes = append(nodes, n)
			}
			return true
		})
		if !triggerExists(pass, name, nodes) {
			pass.Reportf(c.Pos(), "stale //pfair:%s on %s: no %s left in the function — remove the annotation", name, fd.Name.Name, knownDirectives[name])
		}
	}
}

// docOwner returns the function whose doc comment is group, or nil.
func docOwner(file *ast.File, group *ast.CommentGroup) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc == group {
			return fd
		}
	}
	return nil
}

// nodesOnLines collects every node starting on one of the given lines.
func nodesOnLines(pass *Pass, file *ast.File, lines ...int) []ast.Node {
	want := map[int]bool{}
	for _, l := range lines {
		want[l] = true
	}
	var nodes []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if want[pass.Fset.Position(n.Pos()).Line] {
			nodes = append(nodes, n)
		}
		return true
	})
	return nodes
}

// triggerExists reports whether any node in scope is a construct the
// directive suppresses.
func triggerExists(pass *Pass, name string, nodes []ast.Node) bool {
	for _, n := range nodes {
		switch name {
		case "allowpanic":
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
						return true
					}
				}
			}
		case "allowtime":
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "time" && (fn.Name() == "Now" || fn.Name() == "Since") {
					return true
				}
			}
		case "orderinvariant":
			if rs, ok := n.(*ast.RangeStmt); ok {
				if tv, ok := pass.Info.Types[rs.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						return true
					}
				}
			}
		case "coldcall":
			if _, ok := n.(*ast.CallExpr); ok {
				return true
			}
		case "allowfloat":
			if e, ok := n.(ast.Expr); ok {
				if tv, ok := pass.Info.Types[e]; ok && tv.Type != nil && isFloat(tv.Type) {
					return true
				}
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == rationalPkgPath {
					// A floatflow sink annotation: the float heritage is
					// upstream, the rational call is the local evidence.
					return true
				}
			}
		}
	}
	return false
}

// directiveNames renders the grammar for the unknown-directive message.
func directiveNames() string {
	names := make([]string, 0, len(knownDirectives))
	for name := range knownDirectives { //pfair:orderinvariant collected into a slice and sorted before use
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
