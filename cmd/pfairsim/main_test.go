package main

import (
	"fmt"
	"testing"
)

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
