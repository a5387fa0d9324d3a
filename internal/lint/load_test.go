package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeTree lays out files under a fresh temp dir and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadNoModule(t *testing.T) {
	_, err := Load(t.TempDir(), []string{"./..."})
	if err == nil {
		t.Fatal("Load in an empty directory succeeded, want go list error")
	}
	if !strings.Contains(err.Error(), "go list") {
		t.Errorf("error does not name go list: %v", err)
	}
}

func TestLoadParseError(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module broken\n\ngo 1.24\n",
		"pkg.go": "package broken\n\nfunc F( {\n",
		"ok.go":  "package broken\n\nfunc G() {}\n",
	})
	_, err := Load(dir, []string{"."})
	if err == nil {
		t.Fatal("Load of a syntactically broken package succeeded, want parse error")
	}
	if !strings.Contains(err.Error(), "pkg.go") {
		t.Errorf("error does not point at the broken file: %v", err)
	}
}

func TestLoadTypeError(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module broken\n\ngo 1.24\n",
		"pkg.go": "package broken\n\nfunc F() int { return undefinedName }\n",
	})
	_, err := Load(dir, []string{"."})
	if err == nil {
		t.Fatal("Load of an ill-typed package succeeded, want type-check error")
	}
	if !strings.Contains(err.Error(), "type-checking") {
		t.Errorf("error does not name the type-checking phase: %v", err)
	}
}

func TestSortDiagnostics(t *testing.T) {
	d := func(file string, line, col int, analyzer, msg string) Diagnostic {
		return Diagnostic{
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Analyzer: analyzer,
			Message:  msg,
		}
	}
	want := []Diagnostic{
		d("a.go", 1, 1, "hotpath", "x"),
		d("a.go", 1, 2, "hotpath", "x"),
		d("a.go", 1, 2, "ratfloat", "x"),
		d("a.go", 1, 2, "ratfloat", "y"),
		d("a.go", 2, 1, "hotpath", "x"),
		d("b.go", 1, 1, "hotpath", "x"),
	}
	got := make([]Diagnostic, len(want))
	copy(got, want)
	// Reverse, sort, and compare against the hand-ordered slice: every
	// tiebreak level (file, line, column, analyzer, message) is exercised
	// by an adjacent pair above.
	sort.SliceStable(got, func(i, j int) bool { return j < i })
	sortDiagnostics(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestLoadDependencyFromExportData: a module package outside the
// patterns is not checked from source; the matched package still sees
// its exported types, read from the go command's export data.
func TestLoadDependencyFromExportData(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module m\n\ngo 1.24\n",
		"a/a.go": "package a\n\nimport (\n\t\"fmt\"\n\n\t\"m/b\"\n)\n\nfunc F() string { return fmt.Sprint(b.V{N: 1}.Double()) }\n",
		"b/b.go": "package b\n\ntype V struct{ N int }\n\nfunc (v V) Double() int { return 2 * v.N }\n",
	})
	pkgs, err := Load(dir, []string{"./a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "m/a" {
		t.Fatalf("loaded %d packages, want only m/a", len(pkgs))
	}
	imported := false
	for _, imp := range pkgs[0].Pkg.Imports() {
		if imp.Path() == "m/b" && imp.Scope().Lookup("V") != nil {
			imported = true
		}
	}
	if !imported {
		t.Errorf("m/a's imports %v lack m/b with its type V", pkgs[0].Pkg.Imports())
	}
}
