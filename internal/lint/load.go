package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"pfair/internal/lint/callgraph"
)

// A Package is one loaded, parsed, and type-checked package ready to be
// analyzed.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Module and ModuleDir are the path and root directory of the
	// module the package belongs to ("" outside a module).
	Module, ModuleDir string

	ld *loader // the loader that checked the package, nil if none did
}

// Load resolves the given go-list package patterns (e.g. "./...") in dir,
// then parses and type-checks every matched package using only the
// standard library. Packages matched by the patterns are checked from
// source, once, and shared between importers; every other import
// (stdlib, or a module package outside the patterns) is read from the
// compiler export data `go list -export` builds or finds in the build
// cache. Test files are not loaded; the analyzers guard library code,
// and test helpers are free to use floats, maps, and panics.
func Load(dir string, patterns []string) ([]*Package, error) {
	metas, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:        fset,
		metas:       map[string]*listPackage{},
		checked:     map[string]*Package{},
		exportFiles: exports,
	}
	ld.exports = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := ld.exportFiles[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	for _, m := range metas {
		ld.metas[m.ImportPath] = m
	}
	pkgs := make([]*Package, 0, len(metas))
	for _, m := range metas {
		p, err := ld.check(m.ImportPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Module     *struct{ Path, Dir string }
	// DepOnly marks a dependency the patterns did not match; Export is
	// its compiled export data file.
	DepOnly bool
	Export  string
	Error   *struct{ Err string }
}

// goList shells out to the go command to expand patterns into package
// metadata, plus the export data file of every dependency outside them,
// keyed by import path. Build-constraint filtering, module resolution
// and compiling the dependencies are the go command's; the loader only
// consumes the resulting file lists. A matched package that does not
// compile is still returned, so the type checker reports why; an error
// on an entry with no files to check (an unresolvable pattern or import)
// fails the listing.
func goList(dir string, patterns []string) ([]*listPackage, map[string]string, error) {
	args := append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Name,GoFiles,Module,DepOnly,Export,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var metas []*listPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var m listPackage
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		switch {
		case m.Error != nil && len(m.GoFiles) == 0:
			return nil, nil, fmt.Errorf("lint: go list %v: %s", patterns, m.Error.Err)
		case m.DepOnly:
			if m.Export != "" {
				exports[m.ImportPath] = m.Export
			}
		case len(m.GoFiles) > 0:
			metas = append(metas, &m)
		}
	}
	return metas, exports, nil
}

type loader struct {
	fset    *token.FileSet
	metas   map[string]*listPackage
	checked map[string]*Package
	// exportFiles maps the import path of every package read from
	// export data to its file; exports is the importer reading them.
	exportFiles map[string]string
	exports     types.Importer
}

// addExports lists, in dir, the export data of the packages at paths
// that ld can import neither from source nor from export data yet, and
// of their dependencies, so that exports can read them too.
func (ld *loader) addExports(dir string, paths []string) error {
	var missing []string
	for _, path := range paths {
		if _, ok := ld.metas[path]; !ok && ld.exportFiles[path] == "" {
			missing = append(missing, path)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	metas, exports, err := goList(dir, missing)
	if err != nil {
		return err
	}
	for _, m := range metas {
		exports[m.ImportPath] = m.Export
	}
	for path, file := range exports { //pfair:orderinvariant copying a map into a map
		if _, ok := ld.exportFiles[path]; !ok && file != "" {
			ld.exportFiles[path] = file
		}
	}
	return nil
}

// check parses and type-checks the listed package at path, memoized so
// each package is checked once even when imported by later targets.
func (ld *loader) check(path string) (*Package, error) {
	if p, ok := ld.checked[path]; ok {
		return p, nil
	}
	m := ld.metas[path]
	files := make([]*ast.File, 0, len(m.GoFiles))
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(m.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: (*loaderImporter)(ld)}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	p := &Package{Path: path, Fset: ld.fset, Files: files, Pkg: tpkg, Info: info, ld: ld}
	if m.Module != nil {
		p.Module, p.ModuleDir = m.Module.Path, m.Module.Dir
	}
	ld.checked[path] = p
	return p, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// loaderImporter resolves imports during type checking: packages in the
// lint target set are checked by the loader itself (so their identities
// are shared), everything else — stdlib and module packages outside the
// patterns — comes from export data.
type loaderImporter loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	ld := (*loader)(li)
	if _, ok := ld.metas[path]; ok {
		p, err := ld.check(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return ld.exports.(types.ImporterFrom).ImportFrom(path, srcDir, mode)
}

// RunAnalyzers applies every analyzer to every package — per-package
// analyzers to each package in turn, interprocedural analyzers once to
// the whole program, sharing a single call graph — and returns the
// combined diagnostics in deterministic (file, line, column) order.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var program []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			program = append(program, a)
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Path:     pkg.Path,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	if len(program) > 0 {
		graph := buildGraph(pkgs)
		facts := &programFacts{}
		var fset *token.FileSet
		if len(pkgs) > 0 {
			fset = pkgs[0].Fset
		}
		for _, a := range program {
			a.RunProgram(&ProgramPass{
				Analyzer: a,
				Fset:     fset,
				Pkgs:     pkgs,
				Graph:    graph,
				diags:    &diags,
				facts:    facts,
			})
		}
	}
	sortDiagnostics(diags)
	return diags
}

// buildGraph constructs the shared call graph the interprocedural
// analyzers consume.
func buildGraph(pkgs []*Package) *callgraph.Graph {
	if len(pkgs) == 0 {
		return callgraph.Build(token.NewFileSet(), nil)
	}
	cps := make([]*callgraph.Package, len(pkgs))
	for i, p := range pkgs {
		cps[i] = &callgraph.Package{Path: p.Path, Files: p.Files, Pkg: p.Pkg, Info: p.Info}
	}
	return callgraph.Build(pkgs[0].Fset, cps)
}
