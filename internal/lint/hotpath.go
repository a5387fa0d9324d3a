package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath reports allocation sources inside functions annotated
// //pfair:hotpath. PR 1 made Scheduler.Step and the priority comparators
// allocation-free (0 allocs/op); the benchmark notices a regression only
// when someone runs it, whereas this analyzer fails `make lint` at the
// offending line. Inside an annotated function the following are
// flagged:
//
//   - closures (func literals): closing over variables forces them to
//     the heap and allocates the closure itself;
//   - fmt calls: the ...any parameters box their arguments;
//   - make/new: direct allocations;
//   - &T{...} and slice/map composite literals: heap allocations (plain
//     struct value literals are fine — they stay in registers or get
//     copied into preallocated backing arrays);
//   - append to anything that is not a struct field or a local derived
//     from one (the s.buf[:0] double-buffer pattern): appending to a
//     fresh slice allocates its backing array in steady state.
//
// Allocation sources inside a builtin panic's argument are exempt: the
// message formatting runs once, while the program dies, never in steady
// state.
//
// Additionally, the observability contract of internal/obs is enforced:
// any method call on an obs-typed value (Recorder.Emit, Counter.Inc,
// SchedulerMetrics.Task, ...) inside a //pfair:hotpath function must be
// lexically inside the body of an `if x != nil` guard where x is an
// obs-typed prefix of the call's receiver chain. The guard is what makes
// observation free when disabled — a nil recorder costs one predictable
// branch — so an unguarded call is either a nil-pointer hazard or a sign
// the emission was written outside the sanctioned pattern
// `if rec := s.rec; rec != nil { rec.Emit(...) }`.
//
// The rules are per-function and syntactic: callees are not traversed,
// so every function on the hot path must carry its own annotation.
// BenchmarkStepAllocs asserts the dynamic side (0 allocs/op) so the
// analyzer and benchmark cross-check each other.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "flag allocation sources (closures, fmt, make/new, escaping composite " +
		"literals, append to non-preallocated slices) and unguarded internal/obs " +
		"calls inside functions annotated //pfair:hotpath",
	Run: runHotPath,
}

// obsPkgPath is the observability package whose method calls must be
// nil-guarded on hot paths. The obs package itself is exempt: its own
// methods run on receivers the caller already guarded.
const obsPkgPath = "pfair/internal/obs"

func runHotPath(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcHasDirective(fd, "hotpath") {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	// First pass: find locals that reuse preallocated storage — assigned
	// from a slice expression (buf[:0]), a struct field, or an indexed
	// element of one (the calendar-queue bucket pattern w.buckets[b]) —
	// so appends to them are recognized as buffer reuse, not fresh
	// allocation.
	prealloc := preallocLocals(pass, fd)

	if pass.Path != obsPkgPath {
		checkObsGuards(pass, fd)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure in //pfair:hotpath function %s allocates", fd.Name.Name)
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine launch in //pfair:hotpath function %s allocates", fd.Name.Name)
		case *ast.UnaryExpr:
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
				pass.Reportf(lit.Pos(), "&composite literal in //pfair:hotpath function %s escapes to the heap", fd.Name.Name)
				return false
			}
		case *ast.CompositeLit:
			if tv, ok := pass.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "%s literal in //pfair:hotpath function %s allocates", describeComposite(tv.Type), fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			if isPanicCall(pass.Info, n) {
				// Failure path: formatting the panic message may allocate.
				return false
			}
			if fn := calleeFunc(pass.Info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				pass.Reportf(n.Pos(), "fmt.%s in //pfair:hotpath function %s allocates (boxing into ...any)", fn.Name(), fd.Name.Name)
				return true
			}
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			switch id.Name {
			case "make", "new":
				pass.Reportf(n.Pos(), "%s in //pfair:hotpath function %s allocates; hoist the allocation to setup and reuse it", id.Name, fd.Name.Name)
			case "append":
				if len(n.Args) == 0 || !isPreallocTarget(pass, prealloc, n.Args[0]) {
					pass.Reportf(n.Pos(), "append to a non-preallocated slice in //pfair:hotpath function %s; append only to reused buffers (fields or locals from buf[:0])", fd.Name.Name)
				}
			}
		}
		return true
	})
}

// isPreallocTarget reports whether the append target reuses preallocated
// storage: a struct field (s.buf, s.stats.Misses), an indexed element of
// one (w.buckets[b], the calendar-queue bucket pattern — the bucket table
// is allocated at construction and each bucket retains its backing array
// across drains), or a local variable recorded as derived from one.
func isPreallocTarget(pass *Pass, prealloc map[types.Object]bool, target ast.Expr) bool {
	switch t := ast.Unparen(target).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return isPreallocTarget(pass, prealloc, t.X)
	case *ast.Ident:
		obj := pass.Info.Uses[t]
		if obj == nil {
			obj = pass.Info.Defs[t]
		}
		return obj != nil && prealloc[obj]
	}
	return false
}

func describeComposite(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

// checkObsGuards walks fd's body tracking which expressions are known
// non-nil from enclosing `if x != nil` conditions, and reports any
// obs-typed method call not covered by such a guard. The analysis is
// lexical: a guard covers exactly the if statement's body (not its else
// branch), conditions contribute through `&&` conjunctions only, and
// expressions match by their printed form (`rec`, `s.met`, ...), so
// guarding an alias covers calls through that alias and nothing else.
func checkObsGuards(pass *Pass, fd *ast.FuncDecl) {
	var walk func(root ast.Node, guarded map[string]bool)
	walk = func(root ast.Node, guarded map[string]bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				if n.Init != nil {
					walk(n.Init, guarded)
				}
				walk(n.Cond, guarded)
				g := guarded
				if keys := nilGuardKeys(n.Cond, nil); len(keys) > 0 {
					g = make(map[string]bool, len(guarded)+len(keys))
					for k := range guarded { //pfair:orderinvariant copies a set into a set
						g[k] = true
					}
					for _, k := range keys {
						g[k] = true
					}
				}
				walk(n.Body, g)
				if n.Else != nil {
					walk(n.Else, guarded)
				}
				return false
			case *ast.CallExpr:
				checkObsCall(pass, fd, n, guarded)
			}
			return true
		})
	}
	walk(fd.Body, map[string]bool{})
}

// nilGuardKeys appends the printed keys of every expression an if
// condition proves non-nil: `x != nil`, `nil != x`, and conjunctions
// thereof. Disjunctions prove nothing about either operand.
func nilGuardKeys(cond ast.Expr, keys []string) []string {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return keys
	}
	switch b.Op {
	case token.LAND:
		keys = nilGuardKeys(b.X, keys)
		keys = nilGuardKeys(b.Y, keys)
	case token.NEQ:
		if isNilIdent(b.Y) {
			if k := exprKey(b.X); k != "" {
				keys = append(keys, k)
			}
		} else if isNilIdent(b.X) {
			if k := exprKey(b.Y); k != "" {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// exprKey renders an identifier or selector chain (`rec`, `s.met`,
// `tm.Misses`) for guard matching; anything else — calls, indexing —
// renders empty and never matches.
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := exprKey(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	}
	return ""
}

// checkObsCall reports call if its receiver chain contains an obs-typed
// value and no obs-typed prefix of the chain is in the guarded set. For
// `s.met.Tardiness.Observe(v)` the checked prefixes are `s.met.Tardiness`
// and `s.met`; guarding either satisfies the rule. An intermediate call
// expression has no guardable key: `rec.Accounting().Apply(e)` is
// guarded only by a check on `rec`.
func checkObsCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, guarded map[string]bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	touchesObs := false
	for x := ast.Unparen(sel.X); x != nil; {
		if isObsValue(pass, x) {
			touchesObs = true
			if k := exprKey(x); k != "" && guarded[k] {
				return
			}
		}
		switch e := x.(type) {
		case *ast.SelectorExpr:
			x = ast.Unparen(e.X)
		case *ast.CallExpr:
			if f, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				x = ast.Unparen(f.X)
			} else {
				x = nil
			}
		default:
			x = nil
		}
	}
	if touchesObs {
		pass.Reportf(call.Pos(),
			"unguarded obs call in //pfair:hotpath function %s; wrap it in `if x != nil { ... }` so a detached recorder costs one branch",
			fd.Name.Name)
	}
}

// isObsValue reports whether e is a value (not a package name) whose
// type, pointers dereferenced, is declared in the obs package.
func isObsValue(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == obsPkgPath
}
