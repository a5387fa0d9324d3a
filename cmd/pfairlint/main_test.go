package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module named pfair with one package
// under internal/ (the analyzers scope their rules to pfair/internal/...
// paths) and returns its root, so run() exercises the real go-list →
// parse → type-check → analyze path without touching the pfair tree.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module pfair\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir := filepath.Join(dir, "internal", "p")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunCleanPackage(t *testing.T) {
	dir := writeModule(t, "package p\n\nfunc F() int { return 1 }\n")
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run wrote to stdout: %q", stdout.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("clean run wrote to stderr: %q", stderr.String())
	}
}

func TestRunViolationsGoToStderr(t *testing.T) {
	dir := writeModule(t, "package p\n\nfunc F() { panic(\"boom\") }\n")
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"-only", "nopanic", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("diagnostics leaked to stdout: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "[nopanic]") {
		t.Errorf("stderr missing diagnostic, got:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "p.go:3:") {
		t.Errorf("stderr missing file:line position, got:\n%s", stderr.String())
	}
}

func TestRunJSON(t *testing.T) {
	dir := writeModule(t, "package p\n\nfunc F() { panic(\"boom\") }\n")
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"-json", "-only", "nopanic", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if filepath.Base(d.File) != "p.go" || d.Line != 3 || d.Col == 0 {
		t.Errorf("bad position: %+v", d)
	}
	if d.Analyzer != "nopanic" || !strings.Contains(d.Message, "panic") {
		t.Errorf("bad analyzer/message: %+v", d)
	}
}

func TestRunJSONEmptyArrayWhenClean(t *testing.T) {
	dir := writeModule(t, "package p\n\nfunc F() int { return 1 }\n")
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(".", []string{"-only", "nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nosuch"`) {
		t.Errorf("stderr missing unknown-analyzer message, got:\n%s", stderr.String())
	}
}

func TestRunLoadError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(t.TempDir(), []string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "pfairlint:") {
		t.Errorf("stderr missing load error, got:\n%s", stderr.String())
	}
}

// TestRunOnlyReach runs the reach analyzer alone over a module whose
// public API lives in pfair.go at its root: the function the API calls
// is reached, the one nothing calls is reported, and no other analyzer
// runs.
func TestRunOnlyReach(t *testing.T) {
	dir := writeModule(t, "package p\n\nfunc Used() int { return 1 }\n\nfunc Unused() int { panic(\"boom\") }\n")
	api := "package pfair\n\nimport \"pfair/internal/p\"\n\n// One is the module's API.\nfunc One() int { return p.Used() }\n"
	if err := os.WriteFile(filepath.Join(dir, "pfair.go"), []byte(api), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"-only", "reach", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "[reach] pfair/internal/p.Unused is reached by no root") {
		t.Errorf("stderr missing the unreached function, got:\n%s", out)
	}
	if strings.Contains(out, "p.Used ") || strings.Contains(out, "pfair.One") {
		t.Errorf("reached functions reported, got:\n%s", out)
	}
	if strings.Contains(out, "[nopanic]") {
		t.Errorf("-only reach ran other analyzers, got:\n%s", out)
	}
	if !strings.Contains(out, "1 violation(s)") {
		t.Errorf("want exactly one violation, got:\n%s", out)
	}
}
