package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file implements the metrics registry: fixed-slot counters,
// gauges, and histograms preallocated at registration time so that
// updating one from a scheduler hot path is a bare integer operation.
// All values are int64 — the repository's exactness rule (see the
// ratfloat analyzer) extends to metrics: rates and ratios are computed
// by consumers at exposition time, never stored.

// MetricKind discriminates registry entries.
type MetricKind uint8

const (
	// KindCounter is a monotonically non-decreasing count.
	KindCounter MetricKind = iota
	// KindGauge is a point-in-time value (may move both ways).
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing int64. The zero value is usable
// but unregistered; obtain registered counters from Registry.Counter.
type Counter struct{ v int64 }

// Inc adds one.
//
//pfair:hotpath
func (c *Counter) Inc() { c.v++ }

// Add adds d (d must be ≥ 0 for the counter to stay monotone; this is
// not checked on the hot path).
//
//pfair:hotpath
func (c *Counter) Add(d int64) { c.v += d }

// Set stores v, for a counter filled at exposition time from a count
// kept elsewhere (see SchedulerMetrics).
func (c *Counter) Set(v int64) { c.v = v }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a point-in-time int64 value.
type Gauge struct{ v int64 }

// Set stores v.
//
//pfair:hotpath
func (g *Gauge) Set(v int64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations ≤ bounds[i]; one implicit overflow bucket counts the
// rest. Bounds are fixed at registration so Observe never allocates.
type Histogram struct {
	bounds []int64
	counts []int64 // len(bounds)+1, last = overflow (+Inf)
	sum    int64
	count  int64
}

// Observe records one value.
//
//pfair:hotpath
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records the value v n times.
//
//pfair:hotpath
func (h *Histogram) ObserveN(v, n int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i] += n
	h.sum += v * n
	h.count += n
}

// Reset clears every observation, for a histogram refilled at
// exposition time from facts kept elsewhere.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.sum, h.count = 0, 0
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Buckets returns (bounds, cumulative counts) in Prometheus convention:
// cumulative[i] counts observations ≤ bounds[i], with one final entry
// for +Inf. The slices are fresh copies.
func (h *Histogram) Buckets() ([]int64, []int64) {
	bounds := append([]int64(nil), h.bounds...)
	cum := make([]int64, len(h.counts))
	run := int64(0)
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return bounds, cum
}

// metricEntry is one registered series.
type metricEntry struct {
	family string // metric family name, e.g. pfair_migrations_total
	labels string // rendered label pairs without braces, e.g. task="A"
	help   string
	kind   MetricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

func (e *metricEntry) name() string {
	if e.labels == "" {
		return e.family
	}
	return e.family + "{" + e.labels + "}"
}

// Registry holds metric series in registration order. Registration (the
// only allocating operation) happens at setup time; the returned handles
// are updated lock-free by a single owner. Like the Recorder, a Registry
// is per-scheduler-instance, not global, so no synchronization is
// needed.
type Registry struct {
	entries []*metricEntry
	byName  map[string]*metricEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metricEntry{}}
}

// Counter registers (or returns the existing) counter series
// family{labels}. labels is either empty or rendered Prometheus label
// pairs such as `task="A"`. Registering the same series twice returns
// the same handle, so instruments can be declared idempotently.
func (r *Registry) Counter(family, labels, help string) *Counter {
	e := r.lookup(family, labels, help, KindCounter)
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge registers (or returns the existing) gauge series family{labels}.
func (r *Registry) Gauge(family, labels, help string) *Gauge {
	e := r.lookup(family, labels, help, KindGauge)
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// Histogram registers (or returns the existing) histogram series with
// the given ascending bucket upper bounds. The bounds of an existing
// series are not changed.
func (r *Registry) Histogram(family, labels, help string, bounds []int64) *Histogram {
	e := r.lookup(family, labels, help, KindHistogram)
	if e.hist == nil {
		e.hist = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
	}
	return e.hist
}

// lookup finds or creates the entry for family{labels}. A kind clash on
// an existing name returns a fresh unregistered entry rather than
// corrupting the registered one (the registry's contract is "register,
// then update handles"; a clash is a programming error surfaced by the
// Snapshot tests, not worth a panic in a library package).
func (r *Registry) lookup(family, labels, help string, kind MetricKind) *metricEntry {
	key := family + "{" + labels + "}"
	if e, ok := r.byName[key]; ok {
		if e.kind == kind {
			return e
		}
		return &metricEntry{family: family, labels: labels, help: help, kind: kind}
	}
	e := &metricEntry{family: family, labels: labels, help: help, kind: kind}
	r.entries = append(r.entries, e)
	r.byName[key] = e
	return e
}

// EscapeLabel renders v safely for use inside a Prometheus label value:
// backslash, double quote, and newline are escaped.
func EscapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// Sample is one exported series value, the unit of Snapshot.
type Sample struct {
	Family string
	Labels string
	Kind   MetricKind
	// Value is the counter or gauge value; for histograms it is the
	// observation count (with Sum and Buckets carrying the rest).
	Value int64
	Sum   int64
	// BucketBounds and BucketCounts are Prometheus-style cumulative
	// buckets, nil for counters and gauges.
	BucketBounds []int64
	BucketCounts []int64
}

// Name returns the full series name family{labels}.
func (s Sample) Name() string {
	if s.Labels == "" {
		return s.Family
	}
	return s.Family + "{" + s.Labels + "}"
}

// Snapshot returns every registered series in registration order. The
// result is a deep copy: mutating it does not affect the registry.
func (r *Registry) Snapshot() []Sample {
	out := make([]Sample, 0, len(r.entries))
	for _, e := range r.entries {
		s := Sample{Family: e.family, Labels: e.labels, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			s.Value = e.counter.Value()
		case KindGauge:
			s.Value = e.gauge.Value()
		case KindHistogram:
			s.Value = e.hist.Count()
			s.Sum = e.hist.Sum()
			s.BucketBounds, s.BucketCounts = e.hist.Buckets()
		}
		out = append(out, s)
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4). Series appear in registration order; HELP and
// TYPE headers are emitted once per family, at its first series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	seen := map[string]bool{}
	for _, e := range r.entries {
		if !seen[e.family] {
			seen[e.family] = true
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.family, e.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.family, e.kind); err != nil {
				return err
			}
		}
		switch e.kind {
		case KindCounter:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.name(), e.counter.Value()); err != nil {
				return err
			}
		case KindGauge:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.name(), e.gauge.Value()); err != nil {
				return err
			}
		case KindHistogram:
			bounds, cum := e.hist.Buckets()
			for i, b := range bounds {
				if err := writeBucket(w, e, itoa(b), cum[i]); err != nil {
					return err
				}
			}
			if err := writeBucket(w, e, "+Inf", e.hist.Count()); err != nil {
				return err
			}
			suffix := e.labels
			if suffix != "" {
				suffix = "{" + suffix + "}"
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", e.family, suffix, e.hist.Sum()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", e.family, suffix, e.hist.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeBucket(w io.Writer, e *metricEntry, le string, cum int64) error {
	labels := `le="` + le + `"`
	if e.labels != "" {
		labels = e.labels + "," + labels
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", e.family, labels, cum)
	return err
}

// WriteSummary writes a compact human-readable "name value" listing of
// every series, sorted by name — the per-figure summary format used by
// cmd/experiments.
func (r *Registry) WriteSummary(w io.Writer) error {
	snap := r.Snapshot()
	sort.Slice(snap, func(i, j int) bool { return snap[i].Name() < snap[j].Name() })
	for _, s := range snap {
		switch s.Kind {
		case KindHistogram:
			if _, err := fmt.Fprintf(w, "%s count=%d sum=%d\n", s.Name(), s.Value, s.Sum); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %d\n", s.Name(), s.Value); err != nil {
				return err
			}
		}
	}
	return nil
}
