package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"pfair/internal/lint/callgraph"
)

// Reach reports every function and method declared in the loaded program
// that no root reaches: code only tests call, or nothing calls at all.
//
// Roots are the program's entry points:
//
//   - func main of every main package and every func init;
//   - the functions declared in pfair.go of the module's root package
//     (the public API);
//   - what the benchmark's sources name: perfbench/*.go under the module
//     root, its tests aside, is type-checked against the loaded packages
//     (it is a module of its own, outside the load). Every program
//     function or method its identifiers and selectors resolve to is a
//     root, an interface method it calls reaches the implementations
//     of instantiated types, and every program type, constant or
//     variable it names is instantiated. A method that shares only its
//     name with one the benchmark calls is not reached;
//   - functions whose doc comment carries //pfair:keep <reason>: a
//     survivor kept on purpose (a paper claim's root, a test oracle, a
//     seam other packages' tests drive). A keep without a reason keeps
//     nothing; staleannot rejects it, and reports a keep on a function
//     the other roots already reach.
//
// From the roots, reachability follows internal/lint/callgraph's graph
// with rapid type analysis layered on its interface edges. Every function
// a reached body names — called or taken as a value — is reached.
// An interface call reaches an implementation only once the
// implementation's receiver type is instantiated in reached code: named
// in a composite literal, new, make, a conversion, a variable
// declaration or a typed constant, or held by value in another
// instantiated type. Methods the standard library calls through its own
// interfaces (String, Error, Less, MarshalJSON, Int63, …) are reached the
// same way: once their receiver type is instantiated. Package-level
// variable initializers run at program start, so they count as reached
// code.
//
// A program with no main package and no root pfair.go is a library
// fragment: nothing in it is reachable by definition, so Reach reports
// nothing there. Load the whole module (./...) to audit it.
var Reach = &Analyzer{
	Name: "reach",
	Doc: "flag functions and methods no root reaches (main, init, pfair.go, " +
		"what perfbench calls, //pfair:keep <reason>); interface calls " +
		"reach a method only once its receiver type is instantiated in reached code",
	RunProgram: runReach,
}

// benchDir is the directory, under the module root, of the benchmark's
// sources.
var benchDir = "perfbench"

func runReach(pass *ProgramPass) {
	r := pass.reach()
	if r == nil {
		return
	}
	if err := r.benchErr; err != nil {
		// Without the benchmark's roots, code only it calls would read
		// as unreached.
		pos, msg := token.NoPos, err.Error()
		if te, ok := err.(types.Error); ok {
			pos, msg = te.Pos, te.Msg
		}
		pass.Reportf(pos, "checking %s against the program: %s", benchDir, msg)
		return
	}
	for _, n := range pass.Graph.DeclaredNodes() {
		if r.kept[n] || n.Func.Name() == "_" {
			continue
		}
		msg := n.Name() + " is reached by no root (main, init, pfair.go, perfbench, //pfair:keep)"
		if recv := recvNamed(n.Func); recv != nil && !r.inst[recv] {
			msg += "; reached code never instantiates " + recv.Obj().Name()
		}
		pass.Reportf(n.Decl.Name.Pos(), "%s: delete it, or keep it with //pfair:keep <reason>", msg)
	}
}

// reachResult is the reachability both Reach and StaleAnnot consult:
// roots is the closure of the real roots alone, kept adds the closure of
// the //pfair:keep functions, and inst is the set of instantiated types
// after both.
type reachResult struct {
	roots map[*callgraph.Node]bool
	kept  map[*callgraph.Node]bool
	inst  map[*types.Named]bool
	// benchErr is why the benchmark's sources could not be checked.
	benchErr error
}

// reach computes the program's reachability once and shares it between
// the analyzers of one RunAnalyzers call. It returns nil when the
// program has no entry point.
func (p *ProgramPass) reach() *reachResult {
	if !p.facts.reachDone {
		p.facts.reach, p.facts.reachDone = computeReach(p), true
	}
	return p.facts.reach
}

func computeReach(p *ProgramPass) *reachResult {
	w := &reacher{
		graph:   p.Graph,
		reached: map[*callgraph.Node]bool{},
		inst:    map[*types.Named]bool{},
		pending: map[*types.Named][]*callgraph.Node{},
	}
	benchErr := w.benchRoots(p)
	entry := false
	var keeps []*callgraph.Node
	for _, n := range p.Graph.DeclaredNodes() {
		fd := n.Decl
		switch {
		case fd.Recv == nil && fd.Name.Name == "init":
			w.reach(n)
		case fd.Recv == nil && fd.Name.Name == "main" && n.Pkg.Pkg.Name() == "main",
			isAPIFile(p, n):
			entry = true
			w.reach(n)
		}
		if funcDirectiveReason(fd, "keep") {
			keeps = append(keeps, n)
		}
	}
	if !entry {
		return nil
	}
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					w.scan(pkg.Info, gd, true)
				}
			}
		}
	}
	w.drain()
	res := &reachResult{roots: map[*callgraph.Node]bool{}, benchErr: benchErr}
	for n := range w.reached { //pfair:orderinvariant copying a set
		res.roots[n] = true
	}
	for _, n := range keeps {
		w.reach(n)
	}
	w.drain()
	res.kept, res.inst = w.reached, w.inst
	return res
}

// isAPIFile reports whether n is declared in pfair.go of the module's
// root package.
func isAPIFile(p *ProgramPass, n *callgraph.Node) bool {
	pkg := pkgOf(p, n)
	return pkg != nil && pkg.Module != "" && pkg.Path == pkg.Module &&
		filepath.Base(p.Fset.Position(n.File.Pos()).Filename) == "pfair.go"
}

// reacher is the worklist state of one reachability computation.
type reacher struct {
	graph   *callgraph.Graph
	reached map[*callgraph.Node]bool
	queue   []*callgraph.Node
	// inst holds the instantiated named types (generic origins);
	// pending holds interface-call targets waiting for their receiver
	// type to be instantiated.
	inst    map[*types.Named]bool
	pending map[*types.Named][]*callgraph.Node
	// ifaceVals are interface methods used other than as a call's
	// operand (method values, calls promoted through an embedded
	// interface): every instantiated implementation is reached.
	ifaceVals []*types.Func
}

// reach marks n reached and queues its body for scanning.
func (w *reacher) reach(n *callgraph.Node) {
	if n == nil || n.Decl == nil || w.reached[n] {
		return
	}
	w.reached[n] = true
	w.queue = append(w.queue, n)
}

// drain processes the worklist to a fixed point.
func (w *reacher) drain() {
	for len(w.queue) > 0 {
		n := w.queue[0]
		w.queue = w.queue[1:]
		for _, e := range n.Out {
			if e.Kind == callgraph.Static {
				w.reach(e.Callee)
			}
			if e.Kind != callgraph.Interface {
				continue // a dynamic call's targets are reached where their values are taken
			}
			recv := recvNamed(e.Callee.Func)
			switch {
			case recv == nil || e.Callee.Decl == nil:
			case w.inst[recv]:
				w.reach(e.Callee)
			default:
				w.pending[recv] = append(w.pending[recv], e.Callee)
			}
		}
		if n.Decl.Body != nil {
			w.scan(n.Pkg.Info, n.Decl.Body, false)
		}
	}
}

// scan walks reached code: it reaches every program function the code
// names (only in value position when calls are graph edges, also in call
// position for variable initializers, which the graph does not cover)
// and instantiates the types it creates.
func (w *reacher) scan(info *types.Info, root ast.Node, calls bool) {
	callee := map[*ast.Ident]bool{}
	ast.Inspect(root, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			if id := callgraph.CalleeIdent(x.Fun); id != nil && !calls {
				callee[id] = true
			}
			if tv, ok := info.Types[ast.Unparen(x.Fun)]; ok && tv.IsType() {
				if len(x.Args) == 1 && isNil(info, x.Args[0]) {
					break // (*T)(nil) names a type, it creates no T
				}
				w.instantiate(deref(tv.Type))
			} else if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "new" || b.Name() == "make") {
					w.instantiate(zeroValues(info.Types[x.Args[0]].Type, b.Name() == "make"))
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[x]; ok {
				w.instantiate(tv.Type)
			}
		case *ast.SelectorExpr:
			// A method promoted through an embedded interface field
			// dispatches dynamically, but the graph sees a static call
			// of the abstract method.
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal && callgraph.InterfaceOf(sel.Recv()) == nil {
				if fn, ok := sel.Obj().(*types.Func); ok && isAbstract(fn) {
					w.ifaceValue(fn)
				}
			}
		case *ast.ValueSpec:
			for _, name := range x.Names {
				if obj := info.Defs[name]; obj != nil {
					w.instantiate(obj.Type())
				}
			}
		case *ast.BasicLit:
			if tv, ok := info.Types[x]; ok {
				w.instantiate(tv.Type)
			}
		case *ast.Ident:
			switch obj := info.Uses[x].(type) {
			case *types.Const:
				w.instantiate(obj.Type())
			case *types.Func:
				if callee[x] {
					break
				}
				if isAbstract(obj) {
					w.ifaceValue(obj)
					break
				}
				w.reach(w.graph.NodeOf(obj))
			}
		}
		return true
	})
}

// isAbstract reports whether fn is an interface method.
func isAbstract(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && callgraph.InterfaceOf(sig.Recv().Type()) != nil
}

// zeroValues returns the type whose zero values new(T) or make(T, …)
// creates: T itself for new, the element type for make.
func zeroValues(t types.Type, isMake bool) types.Type {
	if t == nil || !isMake {
		return t
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	case *types.Chan:
		return u.Elem()
	}
	return nil
}

// instantiate records that values of t exist, and with them the values
// t holds by value (struct fields, array elements).
func (w *reacher) instantiate(t types.Type) {
	switch t := t.(type) {
	case *types.Named:
		o := t.Origin()
		if w.inst[o] {
			return
		}
		w.inst[o] = true
		for _, n := range w.pending[o] {
			w.reach(n)
		}
		delete(w.pending, o)
		w.calledOutside(o)
		for _, m := range w.ifaceVals {
			w.implement(o, m)
		}
		w.instantiate(o.Underlying())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			w.instantiate(t.Field(i).Type())
		}
	case *types.Array:
		w.instantiate(t.Elem())
	}
}

// ifaceValue records an interface method used as a value: each
// instantiated type that implements the interface has its method reached,
// now and as later types are instantiated.
func (w *reacher) ifaceValue(m *types.Func) {
	for _, seen := range w.ifaceVals {
		if seen == m {
			return
		}
	}
	w.ifaceVals = append(w.ifaceVals, m)
	for t := range w.inst { //pfair:orderinvariant marking a set of reached functions
		w.implement(t, m)
	}
}

// implement reaches t's implementation of the interface method m, if t
// implements m's interface.
func (w *reacher) implement(t *types.Named, m *types.Func) {
	iface := callgraph.InterfaceOf(m.Type().(*types.Signature).Recv().Type())
	ptr := types.NewPointer(t)
	if _, isIface := t.Underlying().(*types.Interface); isIface || !types.Implements(ptr, iface) {
		return
	}
	if sel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name()); sel != nil {
		if fn, ok := sel.Obj().(*types.Func); ok {
			w.reach(w.graph.NodeOf(fn))
		}
	}
}

// stdlibMethods are the methods the standard library calls through its
// own interfaces, by name and (parameter, result) count: fmt's Stringer,
// GoStringer and Formatter, error and its wrappers, sort.Interface,
// container/heap, encoding's marshalers, io's readers and writers,
// flag.Value, go/types' importers, and math/rand's Source and Source64.
var stdlibMethods = map[string][2]int{
	"String": {0, 1}, "GoString": {0, 1}, "Format": {2, 0},
	"Error": {0, 1}, "Unwrap": {0, 1}, "Is": {1, 1}, "As": {1, 1},
	"Len": {0, 1}, "Less": {2, 1}, "Swap": {2, 0}, "Push": {1, 0}, "Pop": {0, 1},
	"MarshalJSON": {0, 2}, "UnmarshalJSON": {1, 1}, "MarshalText": {0, 2}, "UnmarshalText": {1, 1},
	"Read": {1, 2}, "Write": {1, 2}, "WriteString": {1, 2}, "Close": {0, 1},
	"Set": {1, 1}, "Import": {1, 2}, "ImportFrom": {3, 2},
	"Int63": {0, 1}, "Uint64": {0, 1}, "Seed": {1, 0},
}

// calledOutside reaches t's methods that the standard library may call
// on a t through its own interfaces.
func (w *reacher) calledOutside(t *types.Named) {
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		shape, ok := stdlibMethods[fn.Name()]
		sig := fn.Type().(*types.Signature)
		if ok && sig.Params().Len() == shape[0] && sig.Results().Len() == shape[1] {
			w.reach(w.graph.NodeOf(fn))
		}
	}
}

// recvNamed returns the named receiver type (generic origin) of a
// method, or nil for a function or an interface method.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, isIface := named.Underlying().(*types.Interface); isIface {
		return nil
	}
	return named.Origin()
}

// benchRoots type-checks the benchmark's sources, benchDir/*.go under
// the module root without its tests, against the loaded packages, and
// roots what they name from the program: a function or method is
// reached, an interface method reaches the implementations of
// instantiated types, and a type, constant or variable is instantiated.
// It does nothing when the sources import no program package.
func (w *reacher) benchRoots(p *ProgramPass) error {
	var modDir string
	var ld *loader
	byPath := map[string]*Package{}
	for _, pkg := range p.Pkgs {
		byPath[pkg.Path] = pkg
		if pkg.ModuleDir != "" {
			modDir = pkg.ModuleDir
		}
		if pkg.ld != nil {
			ld = pkg.ld
		}
	}
	if modDir == "" || ld == nil {
		return nil
	}
	names, _ := filepath.Glob(filepath.Join(modDir, benchDir, "*.go"))
	var files []*ast.File
	var imports []string
	usesProgram := false
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(p.Fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			imports = append(imports, path)
			usesProgram = usesProgram || byPath[path] != nil
		}
	}
	if !usesProgram {
		return nil
	}
	if err := ld.addExports(modDir, imports); err != nil {
		return err
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	// The loader returns the packages it checked, the program's among
	// them, so what the benchmark names is the program's own object.
	conf := types.Config{Importer: (*loaderImporter)(ld)}
	if _, err := conf.Check(benchDir, p.Fset, files, info); err != nil {
		return err
	}
	for _, obj := range info.Uses { //pfair:orderinvariant reaching and instantiating build sets
		if obj.Pkg() == nil || byPath[obj.Pkg().Path()] == nil {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			if isAbstract(obj) {
				w.ifaceValue(obj)
			} else {
				w.reach(w.graph.NodeOf(obj))
			}
		case *types.TypeName, *types.Const, *types.Var:
			w.instantiate(obj.Type())
		}
	}
	return nil
}

// isNil reports whether e is the predeclared nil.
func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// deref unwraps one pointer: converting to *T yields a T.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
