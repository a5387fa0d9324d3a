package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs pfairsim's main instead of the tests when
// PFAIRSIM_AS_MAIN is set, so a test can run the command as a
// subprocess of its own binary and see its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("PFAIRSIM_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs pfairsim with args and returns its standard output and
// error and its exit code.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PFAIRSIM_AS_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out.String(), errOut.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), 0
}

// TestOverflowingPeriodsRejected: a task whose window arithmetic within
// the run would overflow int64 is refused with an error naming it, not
// scheduled with wrapped deadlines. The largest period the 10-slot bound
// 2·(10+2)·p < 2⁶³ admits still runs, without a miss.
func TestOverflowingPeriodsRejected(t *testing.T) {
	for _, spec := range []string{
		"A:9223372036854775806/9223372036854775807",
		"A:1/9223372036854775807",
		"A:1/384307168202282326",
	} {
		out, errOut, code := runMain(t, "-m", "1", "-slots", "10", spec)
		if code == 0 || !strings.Contains(errOut, "task A:") || out != "" {
			t.Errorf("%s: exit %d, stderr %q, stdout %q; want a non-zero exit naming task A", spec, code, errOut, out)
		}
	}
	out, errOut, code := runMain(t, "-m", "2", "-slots", "10",
		"A:384307168202282324/384307168202282325", "B:192153584101141162/384307168202282325")
	if code != 0 || !strings.Contains(out, "misses=0") {
		t.Errorf("in-range periods: exit %d, stderr %q, stdout %q; want a run without misses", code, errOut, out)
	}
}

// TestInRangeOutputUnchanged pins pfairsim's output for the quickstart
// set, which the range check must leave alone.
func TestInRangeOutputUnchanged(t *testing.T) {
	const want = `PD2 on 2 processor(s), 24 slots (digits = processor):
   0         1         2   
   012345678901234567890123
A |00.11.00.11.00.11.00.11.|
B |1.00.11.00.11.00.11.00.1|
C |.11.00.11.00.11.00.11.00|

allocations=48 context-switches=25 preemptions=8 migrations=22 misses=0
`
	out, errOut, code := runMain(t, "-m", "2", "-slots", "24", "A:2/3", "B:2/3", "C:2/3")
	if code != 0 || out != want {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, errOut, out, want)
	}
}

func TestParseTask(t *testing.T) {
	tk, err := parseTask("video:2/3")
	if err != nil {
		t.Fatal(err)
	}
	if tk.Name != "video" || tk.Cost != 2 || tk.Period != 3 {
		t.Fatalf("parsed %+v", tk)
	}
	for _, bad := range []string{"", "noval", ":2/3", "a:2", "a:x/y", "a:0/3", "a:4/3", "A:2/3junk", "A:2/3/4", "A:2/0x3"} {
		if _, err := parseTask(bad); err == nil {
			t.Errorf("parseTask(%q) accepted", bad)
		}
	}
}

// FuzzParseTask: parseTask never panics, and every spec it accepts
// re-parses from its canonical name:cost/period form to the same task.
func FuzzParseTask(f *testing.F) {
	for _, s := range []string{"video:2/3", "a:1/1", "A:2/3junk", "A:2/3/4", "A:2/0x3",
		"A:9223372036854775806/9223372036854775807", "A:3000000000/6000000000", "a/b:+2/3", ":2/3", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tk, err := parseTask(s)
		if err != nil {
			return
		}
		canon := fmt.Sprintf("%s:%d/%d", tk.Name, tk.Cost, tk.Period)
		again, err := parseTask(canon)
		if err != nil {
			t.Fatalf("parseTask(%q) accepted %+v, but its canonical form %q is rejected: %v", s, tk, canon, err)
		}
		if *again != *tk {
			t.Fatalf("parseTask(%q) = %+v, canonical form %q re-parses to %+v", s, tk, canon, again)
		}
	})
}

func TestValidateFlags(t *testing.T) {
	// ok is a baseline every case below perturbs: the defaults of main's
	// flag declarations.
	ok := flagConfig{m: 1, ringCap: 65536, slotMicros: 1000}
	if err := validateFlags(ok); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*flagConfig)
	}{
		{"zero processors", func(c *flagConfig) { c.m = 0 }},
		{"negative slots", func(c *flagConfig) { c.slots = -10 }},
		{"negative phaseprof", func(c *flagConfig) { c.phaseprof = -4 }},
		{"zero ring", func(c *flagConfig) { c.ringCap = 0 }},
		{"zero slotus", func(c *flagConfig) { c.slotMicros = 0 }},
		{"slotus without trace", func(c *flagConfig) { c.slotusSet = true }},
		{"ring without consumer", func(c *flagConfig) { c.ringSet = true }},
	}
	for _, tc := range cases {
		c := ok
		tc.mut(&c)
		if err := validateFlags(c); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The inert-combination checks clear once the output is requested.
	c := ok
	c.slotusSet, c.tracePath = true, "out.json"
	if err := validateFlags(c); err != nil {
		t.Errorf("-slotus with -trace rejected: %v", err)
	}
	c = ok
	c.ringSet, c.taskstats = true, true
	if err := validateFlags(c); err != nil {
		t.Errorf("-ring with -taskstats rejected: %v", err)
	}
}
