package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadArguments: a positional argument and a non-positive
// -n are usage errors: exit 2, the usage text on stderr, nothing on
// stdout.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"bogus"},
		{"-n", "0", "bogus"},
		{"-n", "0"},
		{"-n", "-3"},
		{"-seed", "2", "-n", "5", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) wrote to stdout: %q", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "usage: fuzz [flags]") {
			t.Errorf("run(%q) stderr lacks the usage text: %q", args, stderr.String())
		}
	}
}

// TestRunBadValues: an undefined flag and unparsable kind, mutant and
// replay values exit 2 without running a case.
func TestRunBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-kinds", "fullutil,nosuchkind"},
		{"-mutant", "nosuchmutant"},
		{"-replay", "fullutil/1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) wrote to stdout: %q", args, stdout.String())
		}
	}
}

// TestRunCampaign runs two cases per kind: stdout is the one summary
// line, and the throughput line goes to stderr.
func TestRunCampaign(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "2", "-seed", "1", "-workers", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	want := "fuzz: 16 task systems across 8 kinds (seed 1): 0 unexplained disagreements, 0 explained EPDF counterexamples\n"
	if stdout.String() != want {
		t.Errorf("stdout %q, want %q", stdout.String(), want)
	}
	if !strings.HasPrefix(stderr.String(), "16 cases in ") {
		t.Errorf("stderr %q lacks the throughput line", stderr.String())
	}
}

// TestRunMutantFails: the oracle catches a broken PD², so the campaign
// prints each failure with its replay key and exits 1.
func TestRunMutantFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-n", "20", "-seed", "1", "-workers", "1", "-kinds", "fullutil", "-mutant", "pd2-nobbit", "-no-shrink"}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stdout %q", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "replay: go run ./cmd/fuzz -replay fullutil/1/") ||
		!strings.Contains(stdout.String(), " -mutant pd2-nobbit\n") {
		t.Errorf("failure report lacks the replay line:\n%s", stdout.String())
	}
}

// TestRunReplay re-runs one case by its key.
func TestRunReplay(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-replay", "fullutil/1/3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	if got := stdout.String(); !strings.HasPrefix(got, "fullutil/1/3: ") || !strings.HasSuffix(got, "\nPASS\n") {
		t.Errorf("replay stdout %q", got)
	}
}
