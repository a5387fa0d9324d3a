// Package callgraph builds a conservative whole-program call graph over
// the packages pfairlint loads, so the interprocedural analyzers
// (hotclosure, floatflow) can follow the hot path and float taint across
// function boundaries instead of trusting per-function annotation
// discipline.
//
// Resolution strategy, from precise to conservative:
//
//   - Static calls (pkg.F(...), recv.M(...) on a concrete type, and
//     generic instantiations F[T](...)) resolve to exactly one callee.
//   - Interface dispatch (i.M(...) where i is interface-typed) resolves
//     by type-set: the callee set is M's implementation on every named
//     type declared in any loaded package whose pointer method set
//     satisfies the interface. This is class-hierarchy analysis — it
//     over-approximates (a type that satisfies engine.Policy is counted
//     even where only one policy can flow in) but never misses a loaded
//     implementation.
//   - Calls of function-typed values (fields like heap's less, calq key
//     funcs, locals, parameters) resolve through a flow-insensitive
//     points-to pass: every assignment, composite-literal field, and
//     call argument carrying a function reference adds candidates to
//     the receiving object, to a fixed point, with instantiated generic
//     fields and parameters canonicalized to their origin so stores
//     through Heap[job]{less: ...} meet the generic body's h.less call.
//     A call through a fully-tracked object resolves to exactly its
//     candidates. Objects that received a function through a form the
//     pass cannot see (a call result, an indexed element) fall back to
//     every address-taken function with a compatible signature:
//     identical, or arity-equal when either side involves type
//     parameters. A function is address-taken when it is referenced
//     anywhere outside call position, including method values and,
//     transitively, every implementation of an interface method used as
//     a value.
//
// Function literals are not separate nodes: a closure's calls are
// attributed to the enclosing declared function, matching how the
// hotpath analyzer treats closure bodies. Calls appearing in
// package-level variable initializers belong to no declared function and
// contribute only to the address-taken set. Callees outside the loaded
// program (standard library) get declaration-less nodes: edges into them
// exist, but traversal cannot continue past them — the analyzers treat
// the stdlib as a trusted boundary.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Package is one loaded, type-checked package presented to Build. It
// mirrors internal/lint's Package without importing it (lint imports
// this package).
type Package struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Kind classifies how an edge's call site resolved to its callee.
type Kind int

const (
	// Static is a direct call of a declared function or concrete method.
	Static Kind = iota
	// Interface is dispatch through an interface method, resolved by
	// type-set over the loaded packages.
	Interface
	// Dynamic is a call of a function-typed value, resolved to
	// signature-compatible address-taken functions.
	Dynamic
)

func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	case Dynamic:
		return "dynamic"
	}
	return "unknown"
}

// An Edge is one resolved call: Caller invokes Callee at Site.
type Edge struct {
	Caller *Node
	Callee *Node
	Site   *ast.CallExpr
	Kind   Kind
}

// A Node is one function in the graph.
type Node struct {
	// Func is the canonical (generic-origin) object for the function.
	Func *types.Func
	// Decl is the function's declaration, nil when its source is outside
	// the loaded program (stdlib, srcimporter-resolved dependencies).
	Decl *ast.FuncDecl
	// File is the file containing Decl (nil alongside it).
	File *ast.File
	// Pkg is the loaded package declaring the function (nil for
	// out-of-program nodes).
	Pkg *Package
	// Out and In are the edges leaving and entering the node, in
	// deterministic source order.
	Out []*Edge
	In  []*Edge
	// AddressTaken reports that the function is referenced as a value
	// somewhere in the program, making it a candidate target for calls
	// of function-typed values.
	AddressTaken bool
}

// Name renders the node for diagnostics: "pkgpath.Func" or
// "pkgpath.(Recv).Method".
func (n *Node) Name() string {
	fn := n.Func
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + "(" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// A Graph is the whole-program call graph.
type Graph struct {
	Fset *token.FileSet
	// Nodes maps every function touched by the program — declared in it
	// or called from it — to its node.
	Nodes map[*types.Func]*Node
	// nodeOrder lists program-declared nodes in (package, position)
	// order so analyzers can iterate deterministically.
	nodeOrder []*Node
	// sites maps each call expression to the edges it produced.
	sites map[*ast.CallExpr][]*Edge
}

// DeclaredNodes returns every node with a declaration in the loaded
// program, in deterministic (package order, source position) order.
func (g *Graph) DeclaredNodes() []*Node { return g.nodeOrder }

// NodeOf returns the node for fn's generic origin, or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[fn.Origin()]
}

// Callees returns the edges resolved for one call site.
func (g *Graph) Callees(site *ast.CallExpr) []*Edge { return g.sites[site] }

// builder carries the intermediate state of one Build.
type builder struct {
	fset  *token.FileSet
	pkgs  []*Package
	graph *Graph
	// concrete lists every named non-interface type declared at package
	// level in the program, in deterministic order, for type-set
	// interface resolution.
	concrete []*types.Named
	// implCache memoizes interface type → implementing methods, keyed by
	// the interface identity and method name.
	implCache map[implKey][]*types.Func
	// dynamicSites are calls of function-typed values, resolved after
	// the address-taken set is complete.
	dynamicSites []dynamicSite
	// callFunIdents are identifiers appearing in call position; any
	// other use of a function-valued identifier marks it address-taken.
	callFunIdents map[*ast.Ident]bool
	// funcVals maps a function-typed object (field, variable, parameter)
	// to the declared functions observed flowing into it, in
	// deterministic discovery order. Dynamic calls through a tracked
	// object resolve to exactly these; untracked objects fall back to
	// signature matching over the address-taken set.
	funcVals map[types.Object][]*types.Func
	funcSeen map[types.Object]map[*types.Func]bool
	// tracked marks objects whose every observed inflow was a form the
	// points-to pass understands; escaped marks objects that received a
	// function value through a form it cannot see (a call result, an
	// indexed element). Only tracked, unescaped objects resolve through
	// funcVals — everything else keeps the signature-matching fallback.
	tracked map[types.Object]bool
	escaped map[types.Object]bool
}

type implKey struct {
	iface  *types.Interface
	method string
}

type dynamicSite struct {
	caller *Node
	site   *ast.CallExpr
	sig    *types.Signature
}

// Build constructs the call graph for the given packages. The packages
// must share one FileSet and one type-checking universe (as produced by
// lint.Load) so that types.Func identities agree across packages.
func Build(fset *token.FileSet, pkgs []*Package) *Graph {
	b := &builder{
		fset:          fset,
		pkgs:          pkgs,
		graph:         &Graph{Fset: fset, Nodes: map[*types.Func]*Node{}, sites: map[*ast.CallExpr][]*Edge{}},
		implCache:     map[implKey][]*types.Func{},
		callFunIdents: map[*ast.Ident]bool{},
	}
	b.collectDecls()
	b.collectConcreteTypes()
	b.markCallPositions()
	b.markAddressTaken()
	b.trackFuncValues()
	for _, pkg := range b.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := b.graph.NodeOf(b.declFunc(pkg, fd))
				if caller == nil {
					continue
				}
				b.collectCalls(pkg, caller, fd.Body)
			}
		}
	}
	b.resolveDynamic()
	return b.graph
}

// declFunc returns the types.Func a declaration defines.
func (b *builder) declFunc(pkg *Package, fd *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	return fn
}

// collectDecls creates a node per declared function, in source order.
func (b *builder) collectDecls() {
	for _, pkg := range b.pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := b.declFunc(pkg, fd)
				if fn == nil {
					continue
				}
				n := &Node{Func: fn, Decl: fd, File: file, Pkg: pkg}
				b.graph.Nodes[fn] = n
				b.graph.nodeOrder = append(b.graph.nodeOrder, n)
			}
		}
	}
}

// collectConcreteTypes gathers every package-level named non-interface
// type for type-set interface resolution. Scope.Names is sorted, so the
// order is deterministic.
func (b *builder) collectConcreteTypes() {
	for _, pkg := range b.pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			b.concrete = append(b.concrete, named)
		}
	}
}

// markCallPositions records every identifier appearing as the function
// operand of a call, so the address-taken pass can exclude them.
func (b *builder) markCallPositions() {
	for _, pkg := range b.pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id := CalleeIdent(call.Fun); id != nil {
					b.callFunIdents[id] = true
				}
				return true
			})
		}
	}
}

// CalleeIdent unwraps a call's Fun to the identifier naming what is
// invoked: the Ident itself, a selector's Sel, or the same through a
// generic instantiation's index expression.
func CalleeIdent(fun ast.Expr) *ast.Ident {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return f
	case *ast.SelectorExpr:
		return f.Sel
	case *ast.IndexExpr:
		return CalleeIdent(f.X)
	case *ast.IndexListExpr:
		return CalleeIdent(f.X)
	}
	return nil
}

// markAddressTaken marks every function referenced outside call
// position. A value use of an interface method additionally marks every
// loaded implementation of that method, since the method value can
// invoke any of them.
func (b *builder) markAddressTaken() {
	for _, pkg := range b.pkgs {
		for id, obj := range pkg.Info.Uses { //pfair:orderinvariant marking a set of address-taken functions; no output order depends on traversal
			fn, ok := obj.(*types.Func)
			if !ok || b.callFunIdents[id] {
				continue
			}
			b.markTaken(fn)
		}
		// A method value i.M on an interface receiver is recorded in
		// Selections; its concrete targets are address-taken too.
		for sel, selection := range pkg.Info.Selections { //pfair:orderinvariant marking a set of address-taken functions; no output order depends on traversal
			if selection.Kind() != types.MethodVal || b.callFunIdents[sel.Sel] {
				continue
			}
			if iface := InterfaceOf(selection.Recv()); iface != nil {
				for _, impl := range b.implementations(iface, sel.Sel.Name) {
					b.markTaken(impl)
				}
			}
		}
	}
}

func (b *builder) markTaken(fn *types.Func) {
	n := b.ensureNode(fn)
	n.AddressTaken = true
	// An interface method object itself has no body; mark loaded
	// implementations so dynamic calls can reach them.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if iface := InterfaceOf(sig.Recv().Type()); iface != nil {
			for _, impl := range b.implementations(iface, fn.Name()) {
				b.ensureNode(impl).AddressTaken = true
			}
		}
	}
}

// ensureNode returns fn's node, creating a declaration-less one for
// functions outside the loaded program.
func (b *builder) ensureNode(fn *types.Func) *Node {
	fn = fn.Origin()
	if n, ok := b.graph.Nodes[fn]; ok {
		return n
	}
	n := &Node{Func: fn}
	b.graph.Nodes[fn] = n
	return n
}

// InterfaceOf returns t's underlying interface, unwrapping one pointer,
// or nil.
func InterfaceOf(t types.Type) *types.Interface {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// implementations returns the concrete methods named method on every
// loaded type satisfying iface, memoized per (iface, method).
func (b *builder) implementations(iface *types.Interface, method string) []*types.Func {
	key := implKey{iface, method}
	if impls, ok := b.implCache[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range b.concrete {
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i); m.Obj().Name() == method {
				if fn, ok := m.Obj().(*types.Func); ok {
					impls = append(impls, fn.Origin())
				}
				break
			}
		}
	}
	b.implCache[key] = impls
	return impls
}

// trackFuncValues runs a small flow-insensitive points-to pass for
// function-typed values: every assignment, declaration, composite
// literal field, and call argument that carries a reference to a
// declared function (or to another tracked object) adds candidates to
// the receiving object, to a fixed point. The result lets a call of
// h.less resolve to the comparators actually stored in less rather than
// to every two-argument function in the program. A tuple assignment (a
// multi-value call, a comma-ok map read or type assertion) is not split:
// its function-typed targets escape.
func (b *builder) trackFuncValues() {
	b.funcVals = map[types.Object][]*types.Func{}
	b.funcSeen = map[types.Object]map[*types.Func]bool{}
	b.tracked = map[types.Object]bool{}
	b.escaped = map[types.Object]bool{}
	for changed := true; changed; {
		changed = false
		for _, pkg := range b.pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							obj := targetObject(pkg, lhs)
							if len(n.Lhs) != len(n.Rhs) {
								if b.escape(obj) {
									changed = true
								}
							} else if b.flowInto(pkg, obj, n.Rhs[i]) {
								changed = true
							}
						}
					case *ast.ValueSpec:
						for i, name := range n.Names {
							obj := pkg.Info.Defs[name]
							switch {
							case len(n.Values) == 0: // the zero value: no function
							case len(n.Names) != len(n.Values):
								if b.escape(obj) {
									changed = true
								}
							case b.flowInto(pkg, obj, n.Values[i]):
								changed = true
							}
						}
					case *ast.CompositeLit:
						if b.flowComposite(pkg, n) {
							changed = true
						}
					case *ast.CallExpr:
						if b.flowArgs(pkg, n) {
							changed = true
						}
					}
					return true
				})
			}
		}
	}
}

// targetObject resolves an assignment target to the object that holds
// the value: an identifier's object or a selected field/variable.
func targetObject(pkg *Package, lhs ast.Expr) types.Object {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if o := pkg.Info.Defs[lhs]; o != nil {
			return o
		}
		return pkg.Info.Uses[lhs]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[lhs.Sel]
	}
	return nil
}

// canonObj maps an instantiated generic object back to its generic
// origin. A store through Heap[job]{less: jobLess} sees the
// instantiated field variable while a call of h.less inside the generic
// method body sees the origin's; canonicalizing both to the origin
// makes them the same points-to key.
func canonObj(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return o
}

// flowInto adds rhs's function candidates to obj, reporting growth. A
// function-typed rhs the tracker cannot see through marks obj escaped,
// disqualifying it from points-to resolution.
func (b *builder) flowInto(pkg *Package, obj types.Object, rhs ast.Expr) bool {
	if obj == nil {
		return false
	}
	obj = canonObj(obj)
	cands, ok := b.candidates(pkg, rhs)
	if !ok {
		if tv, tok := pkg.Info.Types[rhs]; tok && tv.Type != nil {
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig && !b.escaped[obj] {
				b.escaped[obj] = true
				return true
			}
		}
		return false
	}
	b.tracked[obj] = true
	grew := false
	for _, fn := range cands {
		if b.addFuncVal(obj, fn) {
			grew = true
		}
	}
	return grew
}

// escape marks a function-typed obj escaped, reporting whether it was
// not already: it received a value the tracker cannot see.
func (b *builder) escape(obj types.Object) bool {
	if obj == nil {
		return false
	}
	if _, isSig := obj.Type().Underlying().(*types.Signature); !isSig {
		return false
	}
	obj = canonObj(obj)
	if b.escaped[obj] {
		return false
	}
	b.escaped[obj] = true
	return true
}

func (b *builder) addFuncVal(obj types.Object, fn *types.Func) bool {
	obj = canonObj(obj)
	seen := b.funcSeen[obj]
	if seen == nil {
		seen = map[*types.Func]bool{}
		b.funcSeen[obj] = seen
	}
	if seen[fn] {
		return false
	}
	seen[fn] = true
	b.funcVals[obj] = append(b.funcVals[obj], fn)
	return true
}

// candidates returns the declared functions e may evaluate to, and
// whether e is a form the tracker understands. A direct function
// reference yields that function; an identifier or selector yields the
// candidates of its object; a method value on an interface yields every
// loaded implementation. A function literal yields no named candidates
// but still counts as understood: a closure is not a graph node (its
// calls already belong to the enclosing function), so an object holding
// only closures resolves to nothing rather than falling back to
// signature matching over the address-taken set.
func (b *builder) candidates(pkg *Package, e ast.Expr) ([]*types.Func, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return nil, true
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
			return []*types.Func{fn.Origin()}, true
		}
		if o := pkg.Info.Uses[e]; o != nil {
			o = canonObj(o)
			if b.escaped[o] {
				return nil, false
			}
			return b.funcVals[o], true
		}
		if o := pkg.Info.Defs[e]; o != nil {
			o = canonObj(o)
			if b.escaped[o] {
				return nil, false
			}
			return b.funcVals[o], true
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
				if iface := InterfaceOf(sel.Recv()); iface != nil {
					return b.implementations(iface, e.Sel.Name), true
				}
			}
			return []*types.Func{fn.Origin()}, true
		}
		if o := pkg.Info.Uses[e.Sel]; o != nil {
			o = canonObj(o)
			if b.escaped[o] {
				return nil, false
			}
			return b.funcVals[o], true
		}
	}
	return nil, false
}

// flowComposite propagates function values into struct-literal fields.
func (b *builder) flowComposite(pkg *Package, lit *ast.CompositeLit) bool {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	grew := false
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				if b.flowInto(pkg, pkg.Info.Uses[key], kv.Value) {
					grew = true
				}
			}
			continue
		}
		if i < st.NumFields() && b.flowInto(pkg, st.Field(i), el) {
			grew = true
		}
	}
	return grew
}

// flowArgs propagates function-valued arguments into the parameters of
// statically resolved, program-declared callees.
func (b *builder) flowArgs(pkg *Package, call *ast.CallExpr) bool {
	if tv, ok := pkg.Info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		return false
	}
	id := CalleeIdent(call.Fun)
	if id == nil {
		return false
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	callee := b.graph.Nodes[fn.Origin()]
	if callee == nil || callee.Decl == nil || callee.Decl.Type.Params == nil {
		return false
	}
	var params []types.Object
	for _, f := range callee.Decl.Type.Params.List {
		if len(f.Names) == 0 {
			params = append(params, nil)
			continue
		}
		for _, name := range f.Names {
			params = append(params, callee.Pkg.Info.Defs[name])
		}
	}
	grew := false
	for i, arg := range call.Args {
		if i >= len(params) || params[i] == nil {
			continue
		}
		if b.flowInto(pkg, params[i], arg) {
			grew = true
		}
	}
	return grew
}

// collectCalls resolves every call in body and records edges from
// caller. Closure bodies are included: their calls belong to the
// enclosing declared function.
func (b *builder) collectCalls(pkg *Package, caller *Node, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		b.resolveCall(pkg, caller, call)
		return true
	})
}

// resolveCall classifies one call site and records its edges.
func (b *builder) resolveCall(pkg *Package, caller *Node, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Conversions and builtins produce no edges.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return
	}
	if id := CalleeIdent(fun); id != nil {
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	// Interface dispatch: a method call whose receiver is interface-typed.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if selection, ok := pkg.Info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			if iface := InterfaceOf(selection.Recv()); iface != nil {
				for _, impl := range b.implementations(iface, sel.Sel.Name) {
					b.addEdge(caller, impl, call, Interface)
				}
				// Also record the interface method object itself so
				// out-of-program interfaces keep a callee node.
				if len(b.implementations(iface, sel.Sel.Name)) == 0 {
					if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok {
						b.addEdge(caller, fn, call, Interface)
					}
				}
				return
			}
		}
	}
	// Static: the callee identifier resolves to a *types.Func.
	if id := CalleeIdent(fun); id != nil {
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
			b.addEdge(caller, fn, call, Static)
			return
		}
	}
	// Everything else is a call of a function-typed value. If the value
	// lives in a tracked object (field, variable, parameter) whose
	// points-to set is known, resolve to exactly those functions;
	// otherwise fall back to signature matching against the
	// address-taken set once it is complete.
	if obj := targetObject(pkg, fun); obj != nil {
		if o := canonObj(obj); b.tracked[o] && !b.escaped[o] {
			for _, fn := range b.funcVals[o] {
				b.addEdge(caller, fn, call, Dynamic)
			}
			return
		}
	}
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	b.dynamicSites = append(b.dynamicSites, dynamicSite{caller: caller, site: call, sig: sig})
}

func (b *builder) addEdge(caller *Node, callee *types.Func, site *ast.CallExpr, kind Kind) {
	cn := b.ensureNode(callee)
	e := &Edge{Caller: caller, Callee: cn, Site: site, Kind: kind}
	caller.Out = append(caller.Out, e)
	cn.In = append(cn.In, e)
	b.graph.sites[site] = append(b.graph.sites[site], e)
}

// resolveDynamic connects calls of function-typed values to every
// address-taken program function with a compatible signature.
func (b *builder) resolveDynamic() {
	var taken []*Node
	for _, n := range b.graph.nodeOrder {
		if n.AddressTaken {
			taken = append(taken, n)
		}
	}
	for _, ds := range b.dynamicSites {
		for _, cand := range taken {
			sig, ok := cand.Func.Type().(*types.Signature)
			if !ok {
				continue
			}
			if compatible(ds.sig, sig) {
				b.addEdge(ds.caller, cand.Func, ds.site, Dynamic)
			}
		}
	}
}

// compatible reports whether a function with signature have can be
// invoked at a call site expecting want: identical signatures, or equal
// parameter and result arity when type parameters are involved on either
// side (a generic container invoking a concrete comparator, or vice
// versa).
func compatible(want, have *types.Signature) bool {
	// Compare without receivers.
	w := types.NewSignatureType(nil, nil, nil, want.Params(), want.Results(), want.Variadic())
	h := types.NewSignatureType(nil, nil, nil, have.Params(), have.Results(), have.Variadic())
	if types.Identical(w, h) {
		return true
	}
	if !generic(want) && !generic(have) {
		return false
	}
	return want.Params().Len() == have.Params().Len() &&
		want.Results().Len() == have.Results().Len()
}

// generic reports whether sig mentions type parameters anywhere.
func generic(sig *types.Signature) bool {
	if sig.TypeParams().Len() > 0 || sig.RecvTypeParams().Len() > 0 {
		return true
	}
	found := false
	check := func(t *types.Tuple) {
		for i := 0; i < t.Len(); i++ {
			if mentionsTypeParam(t.At(i).Type(), 0) {
				found = true
			}
		}
	}
	check(sig.Params())
	check(sig.Results())
	return found
}

// mentionsTypeParam walks t (bounded) looking for a *types.TypeParam.
func mentionsTypeParam(t types.Type, depth int) bool {
	if depth > 8 {
		return false
	}
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Pointer:
		return mentionsTypeParam(t.Elem(), depth+1)
	case *types.Slice:
		return mentionsTypeParam(t.Elem(), depth+1)
	case *types.Array:
		return mentionsTypeParam(t.Elem(), depth+1)
	case *types.Map:
		return mentionsTypeParam(t.Key(), depth+1) || mentionsTypeParam(t.Elem(), depth+1)
	case *types.Chan:
		return mentionsTypeParam(t.Elem(), depth+1)
	case *types.Signature:
		for i := 0; i < t.Params().Len(); i++ {
			if mentionsTypeParam(t.Params().At(i).Type(), depth+1) {
				return true
			}
		}
		for i := 0; i < t.Results().Len(); i++ {
			if mentionsTypeParam(t.Results().At(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if mentionsTypeParam(t.TypeArgs().At(i), depth+1) {
				return true
			}
		}
	}
	return false
}
