package callgraph_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"testing"

	"pfair/internal/lint/callgraph"
)

// The fixtures are small stdlib-free packages, type-checked together the
// way lint.Load checks the repository: one FileSet, one universe, each
// import resolved to the package checked before it.

// extSrc is imported by bSrc but never passed to Build: its functions are
// outside the program.
const extSrc = `package ext

func Now() int { return 0 }
`

// aSrc pins static calls, builtins and conversions, and one half of the
// interface type-set: Rect and Sq implement Shape, Line does not (its
// Area has another result type).
const aSrc = `package a

type Shape interface{ Area() int }

type Sq struct{ s int }

func (q Sq) Area() int { return q.s * q.s }

type Rect struct{ w, h int }

func (r *Rect) Area() int { return r.w * r.h }

type Line struct{}

func (Line) Area() float64 { return 0 }

func Total(xs []Shape) int {
	n := 0
	for _, x := range xs {
		n += x.Area()
	}
	return n
}

func Helper(x int) int { return x + 1 }

func UseHelper() int { return Helper(2) + len("ab") + int(int8(3)) }

func Max[T int | float64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

func UseMax() int { return Max[int](1, 2) + Max(3, 4) }

func Bind(s Shape) func() int { return s.Area }
`

// bSrc adds a Shape implementation in a second package and calls out of
// the program.
const bSrc = `package b

import (
	"a"
	"ext"
)

type Circle struct{ r int }

func (c Circle) Area() int { return 3 * c.r * c.r }

func Sum() int { return a.Total([]a.Shape{Circle{1}, a.Sq{}}) + ext.Now() }
`

// cSrc pins the points-to pass: a generic struct field, a parameter, a
// closure-only local, and a call result it cannot see through, alone
// and beside a reference it can.
const cSrc = `package c

type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

func (h *Heap[T]) Less(i, j int) bool { return h.less(h.items[i], h.items[j]) }

func byValue(a, b int) bool   { return a < b }
func byReverse(a, b int) bool { return a > b }
func unused(a, b int) bool    { return a == b }

func NewHeap() *Heap[int] { return &Heap[int]{less: byValue} }

var Other = byReverse

func apply(f func(int) int, x int) int { return f(x) }

func double(x int) int { return 2 * x }
func triple(x int) int { return 3 * x }
func square(x int) int { return x * x }
func negate(x int) int { return -x }

func Apply() int { return apply(double, 1) + negate(1) }

var table = []func(int) int{triple, square}

func pick(i int) func(int) int { return table[i] }

func Fallback() int {
	f := pick(0)
	return f(1)
}

func Mixed() int {
	h := double
	h = pick(1)
	return h(2)
}

func half(x float64) float64 { return x / 2 }

var Halver = half

func Closure() int {
	g := func(x int) int { return double(x) }
	return g(1) + unused2()
}

func unused2() int { return 0 }
`

// dSrc pins the tuple forms the points-to pass cannot split: a
// multi-value call, a comma-ok map read and a comma-ok type assertion,
// each assigned over a tracked value, and a multi-value var declaration.
const dSrc = `package d

type S struct{ fn func() }

func known()        {}
func unknownAlloc() {}
func fromMap()      {}

func lookup() (func(), error) { return unknownAlloc, nil }

func Entry() {
	s := S{fn: known}
	s.fn, _ = lookup()
	s.fn()
}

var registry = map[string]func(){"m": fromMap}

func MapRead() {
	f := known
	var ok bool
	f, ok = registry["m"]
	if ok {
		f()
	}
}

func Assert(x any) {
	g := known
	g, _ = x.(func())
	g()
}

func Spec() {
	var h, err = lookup()
	_ = err
	h = known
	h()
}
`

type fixture struct{ path, src string }

// build type-checks the fixtures in order and builds the call graph over
// those whose path is in program.
func build(t *testing.T, fixtures []fixture, program ...string) *callgraph.Graph {
	t.Helper()
	fset := token.NewFileSet()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("fixture %q not checked yet", path)
	})
	var pkgs []*callgraph.Package
	for _, fx := range fixtures {
		file, err := parser.ParseFile(fset, fx.path+".go", fx.src, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", fx.path, err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(fx.path, fset, []*ast.File{file}, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", fx.path, err)
		}
		checked[fx.path] = pkg
		if slices.Contains(program, fx.path) {
			pkgs = append(pkgs, &callgraph.Package{Path: fx.path, Files: []*ast.File{file}, Pkg: pkg, Info: info})
		}
	}
	return callgraph.Build(fset, pkgs)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// program builds the graph of packages a, b and c, with ext outside it.
func program(t *testing.T) *callgraph.Graph {
	return build(t, []fixture{{"ext", extSrc}, {"a", aSrc}, {"b", bSrc}, {"c", cSrc}}, "a", "b", "c")
}

// node finds a declared node by its Name.
func node(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	for _, n := range g.DeclaredNodes() {
		if n.Name() == name {
			return n
		}
	}
	t.Fatalf("no declared node %s", name)
	return nil
}

// out renders a node's outgoing edges as "kind callee", in edge order.
func out(n *callgraph.Node) []string {
	var s []string
	for _, e := range n.Out {
		s = append(s, e.Kind.String()+" "+e.Callee.Name())
	}
	return s
}

func TestStaticEdges(t *testing.T) {
	g := program(t)
	for caller, want := range map[string][]string{
		// Builtins and conversions produce no edges.
		"a.UseHelper": {"static a.Helper"},
		// Both instantiations, explicit and inferred, resolve to the
		// generic origin.
		"a.UseMax": {"static a.Max", "static a.Max"},
		"c.Apply":  {"static c.apply", "static c.negate"},
	} {
		if got := out(node(t, g, caller)); !slices.Equal(got, want) {
			t.Errorf("%s calls %v, want %v", caller, got, want)
		}
	}
	// Every edge is reachable from its call site and its callee.
	for _, e := range node(t, g, "c.Apply").Out {
		if got := g.Callees(e.Site); len(got) != 1 || got[0] != e {
			t.Errorf("Callees(%s site) = %v, want the one edge", e.Callee.Name(), got)
		}
		if !slices.Contains(e.Callee.In, e) {
			t.Errorf("%s.In lacks the edge from %s", e.Callee.Name(), e.Caller.Name())
		}
	}
}

// TestInterfaceDispatchCHA: a call through Shape reaches Area on every
// loaded type whose method set satisfies Shape, across packages and for
// value and pointer receivers, and on no other type with an Area method.
func TestInterfaceDispatchCHA(t *testing.T) {
	g := program(t)
	want := []string{"interface a.(Rect).Area", "interface a.(Sq).Area", "interface b.(Circle).Area"}
	if got := out(node(t, g, "a.Total")); !slices.Equal(got, want) {
		t.Errorf("a.Total calls %v, want %v", got, want)
	}
	// A method value on an interface makes every implementation a
	// possible target of a function-typed call.
	for name, taken := range map[string]bool{
		"a.(Rect).Area": true, "a.(Sq).Area": true, "b.(Circle).Area": true, "a.(Line).Area": false,
	} {
		if got := node(t, g, name).AddressTaken; got != taken {
			t.Errorf("%s.AddressTaken = %v, want %v", name, got, taken)
		}
	}
}

// TestOutOfProgramCallee: a call into a package outside Build's set gets
// an edge to a node without a declaration, which traversal stops at.
func TestOutOfProgramCallee(t *testing.T) {
	g := program(t)
	sum := node(t, g, "b.Sum")
	want := []string{"static a.Total", "static ext.Now"}
	if got := out(sum); !slices.Equal(got, want) {
		t.Fatalf("b.Sum calls %v, want %v", got, want)
	}
	now := sum.Out[1].Callee
	if now.Decl != nil || now.File != nil || now.Pkg != nil {
		t.Errorf("ext.Now has a declaration in the graph: %+v", now)
	}
	if slices.Contains(g.DeclaredNodes(), now) {
		t.Error("ext.Now is listed among the declared nodes")
	}
	if g.NodeOf(now.Func) != now {
		t.Error("NodeOf(ext.Now) does not return its node")
	}
}

// TestPointsTo: calls of function-typed values resolve to exactly what
// flowed into the called object, where the pass can see every inflow.
func TestPointsTo(t *testing.T) {
	g := program(t)
	for caller, want := range map[string][]string{
		// A store through Heap[int]{less: byValue} meets the generic
		// body's h.less call; byReverse, address-taken with the same
		// signature, is not a candidate.
		"c.(Heap).Less": {"dynamic c.byValue"},
		// An argument flows into the parameter.
		"c.apply": {"dynamic c.double"},
		// A local holding only a closure resolves to nothing; the
		// closure's own call belongs to the enclosing function.
		"c.Closure": {"static c.double", "static c.unused2"},
	} {
		if got := out(node(t, g, caller)); !slices.Equal(got, want) {
			t.Errorf("%s calls %v, want %v", caller, got, want)
		}
	}
}

// TestFallback: a function value from a call result escapes the
// points-to pass, so its call reaches every address-taken function with
// an identical signature, in declaration order, and nothing else: not
// half, whose arity matches but whose types do not. One unseen inflow
// is enough, even beside a seen one.
func TestFallback(t *testing.T) {
	g := program(t)
	for caller, want := range map[string][]string{
		"c.Fallback": {"static c.pick", "dynamic c.double", "dynamic c.triple", "dynamic c.square"},
		"c.Mixed":    {"static c.pick", "dynamic c.double", "dynamic c.triple", "dynamic c.square"},
	} {
		if got := out(node(t, g, caller)); !slices.Equal(got, want) {
			t.Errorf("%s calls %v, want %v", caller, got, want)
		}
	}
	for name, taken := range map[string]bool{
		"c.double": true, "c.triple": true, "c.square": true, "c.byValue": true, "c.byReverse": true, "c.half": true,
		"c.negate": false, "c.unused": false, "a.Helper": false,
	} {
		if got := node(t, g, name).AddressTaken; got != taken {
			t.Errorf("%s.AddressTaken = %v, want %v", name, got, taken)
		}
	}
}

// TestTupleAssignEscapes: a function-typed target of a tuple assignment
// holds a value the points-to pass cannot see, so its call falls back to
// every address-taken function of its signature. Entry's s.fn() runs
// unknownAlloc, not only the known stored in the literal.
func TestTupleAssignEscapes(t *testing.T) {
	g := build(t, []fixture{{"d", dSrc}}, "d")
	all := []string{"dynamic d.known", "dynamic d.unknownAlloc", "dynamic d.fromMap"}
	for caller, want := range map[string][]string{
		"d.Entry":   append([]string{"static d.lookup"}, all...),
		"d.MapRead": all,
		"d.Assert":  all,
		"d.Spec":    append([]string{"static d.lookup"}, all...),
	} {
		if got := out(node(t, g, caller)); !slices.Equal(got, want) {
			t.Errorf("%s calls %v, want %v", caller, got, want)
		}
	}
}

// TestDeclaredNodesOrder: declared nodes come in package order, then
// source order, and the graph is the same on every build.
func TestDeclaredNodesOrder(t *testing.T) {
	names := func(g *callgraph.Graph) []string {
		var s []string
		for _, n := range g.DeclaredNodes() {
			s = append(s, n.Name())
		}
		return s
	}
	first := names(program(t))
	if i, j := slices.Index(first, "a.Total"), slices.Index(first, "b.Sum"); i < 0 || j < 0 || i > j {
		t.Errorf("a.Total at %d, b.Sum at %d: package a must come first", i, j)
	}
	if i, j := slices.Index(first, "c.byValue"), slices.Index(first, "c.byReverse"); i < 0 || i+1 != j {
		t.Errorf("c.byValue at %d, c.byReverse at %d: want source order", i, j)
	}
	for k := 0; k < 3; k++ {
		if again := names(program(t)); !slices.Equal(again, first) {
			t.Fatalf("rebuild %d lists %v, first build %v", k, again, first)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[callgraph.Kind]string{
		callgraph.Static: "static", callgraph.Interface: "interface", callgraph.Dynamic: "dynamic", callgraph.Kind(9): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
