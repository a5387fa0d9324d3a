package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadArguments: an unknown experiment, a second
// positional argument, a negative size and fewer than one worker are
// usage errors: exit 2, the usage text on stderr, nothing on stdout.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"fig9"},
		{"fig1", "fig3"},
		{"-sets", "2", "quantum", "extra"},
		{"-sets", "-3", "-workers", "1", "fig3"},
		{"-horizon", "-5", "fig2a"},
		{"-every", "-1", "phases"},
		{"-workers", "0", "fig3"},
		{"-workers", "-2", "fig3"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) wrote to stdout: %q", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "usage: experiments [flags]") {
			t.Errorf("run(%q) stderr lacks the usage text: %q", args, stderr.String())
		}
	}
}

// TestRunBadFlag: an undefined flag is a usage error too.
func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nosuchflag", "fig1"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

// TestRunQuantumSmall runs a two-set quantum sweep end to end and checks
// the table's shape: its header and one row per quantum size.
func TestRunQuantumSmall(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sets", "2", "-workers", "1", "quantum"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 2+7 || !strings.HasPrefix(lines[1], "# q_us\tPD2_procs") {
		t.Fatalf("quantum table:\n%s", stdout.String())
	}
	for _, row := range lines[2:] {
		if f := strings.Split(row, "\t"); len(f) != 5 {
			t.Errorf("row %q has %d fields, want 5", row, len(f))
		}
	}
	if !strings.HasPrefix(lines[2], "100\t") || !strings.HasPrefix(lines[8], "10000\t") {
		t.Errorf("rows do not span q = 100 … 10000 µs:\n%s", stdout.String())
	}
}
