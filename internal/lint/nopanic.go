package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// rationalPanicAllowlist names the internal/rational functions whose
// panics are arithmetic-invariant checks: they fire only on division by
// zero, a zero denominator, or a value that is unrepresentable in int64
// even after reduction — conditions the package documents as programmer
// errors, mirroring the standard library's math/big. Methods are listed
// as "Type.Method".
var rationalPanicAllowlist = map[string]bool{
	"New":         true, // zero denominator, or a value out of int64 range in lowest terms
	"Rat.Div":     true, // division by zero
	"CeilDiv":     true, // requires b > 0
	"LCM":         true, // int64 overflow
	"bigFallback": true, // result unrepresentable even in lowest terms
	"Acc.Ceil":    true, // ⌈Σwt⌉ cannot exceed the task count, so overflow is a caller bug
}

// NoPanic reports panic calls in library packages under internal/.
// Callers of a library cannot recover policy from a panic: a scheduler
// embedded in a server must degrade, not crash, so fallible conditions
// return errors. Two escapes exist, both explicit:
//
//   - the arithmetic-invariant checks of internal/rational listed in
//     rationalPanicAllowlist (the package's documented contract, like
//     math/big's);
//   - panics annotated //pfair:allowpanic <reason> — API-misuse guards
//     (heap.Fix on a removed item) and invariants the surrounding code
//     has already established, where returning an error would force
//     every caller to handle the impossible.
var NoPanic = &Analyzer{
	Name: "nopanic",
	Doc: "flag panic calls in internal/ library packages; return errors instead, " +
		"or justify invariant/misuse panics with //pfair:allowpanic <reason>",
	Run: runNoPanic,
}

func runNoPanic(pass *Pass) {
	if !strings.HasPrefix(pass.Path, "pfair/internal/") {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if pass.Path == "pfair/internal/rational" {
				if fd := pass.enclosingFunc(file, call.Pos()); fd != nil && rationalPanicAllowlist[funcKey(fd)] {
					return true
				}
			}
			found, hasReason := pass.annotated(file, call.Pos(), "allowpanic")
			switch {
			case !found:
				pass.Reportf(call.Pos(), "panic in library package %s; return an error, or justify with //pfair:allowpanic <reason>", pass.Path)
			case !hasReason:
				pass.Reportf(call.Pos(), "//pfair:allowpanic needs a reason")
			}
			return true
		})
	}
}

// funcKey renders a declaration as "Name" or "RecvType.Name" to match
// rationalPanicAllowlist entries.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
