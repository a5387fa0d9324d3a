package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files.
type span struct {
	name       string
	start, end time.Duration
}

// tracer keeps the spans of a traced run in memory. A nil *tracer is the
// untraced case: begin and end do nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
}

// writeSummary prints the call count and total time per span name.
func (t *tracer) writeSummary(w io.Writer) {
	type agg struct {
		calls int
		total time.Duration
	}
	byName := map[string]*agg{}
	for _, s := range t.spans {
		a := byName[s.name]
		if a == nil {
			a = &agg{}
			byName[s.name] = a
		}
		a.calls++
		a.total += s.end - s.start
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %8s %12s\n", "span", "calls", "total ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "%-36s %8d %12.3f\n", n, a.calls, float64(a.total.Nanoseconds())/1e6)
	}
}
