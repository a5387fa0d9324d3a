package obs

import (
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}

	g := reg.Gauge("g", "", "a gauge")
	g.Set(7)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
	g.Set(3) // a gauge moves both ways
	if g.Value() != 3 {
		t.Errorf("gauge = %d, want 3", g.Value())
	}

	h := reg.Histogram("h", "", "a histogram", []int64{1, 10})
	for _, v := range []int64{0, 1, 2, 10, 11, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 124 {
		t.Errorf("hist count=%d sum=%d", h.Count(), h.Sum())
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 2 || bounds[0] != 1 || bounds[1] != 10 {
		t.Errorf("bounds = %v", bounds)
	}
	// ≤1: {0,1} → 2; ≤10: +{2,10} → 4; +Inf: 6.
	if cum[0] != 2 || cum[1] != 4 || cum[2] != 6 {
		t.Errorf("cumulative = %v", cum)
	}

	// Refilled at exposition: Reset, then ObserveN per distinct value,
	// must read the same as observing each value once.
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("after Reset: count=%d sum=%d", h.Count(), h.Sum())
	}
	h.ObserveN(2, 3)
	h.ObserveN(11, 2)
	h.ObserveN(0, 0)
	if _, cum := h.Buckets(); h.Count() != 5 || h.Sum() != 28 || cum[0] != 0 || cum[1] != 3 || cum[2] != 5 {
		t.Errorf("ObserveN: count=%d sum=%d cumulative=%v, want 5, 28, [0 3 5]", h.Count(), h.Sum(), cum)
	}
	c.Set(2) // filled from a count kept elsewhere
	if c.Value() != 2 {
		t.Errorf("counter after Set = %d, want 2", c.Value())
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", `task="A"`, "")
	b := reg.Counter("x_total", `task="A"`, "")
	if a != b {
		t.Error("same series registered twice returned different handles")
	}
	other := reg.Counter("x_total", `task="B"`, "")
	if a == other {
		t.Error("different label sets share a handle")
	}
	if n := len(reg.Snapshot()); n != 2 {
		t.Errorf("snapshot has %d series, want 2", n)
	}
	// A kind clash must not corrupt the registered entry.
	g := reg.Gauge("x_total", `task="A"`, "")
	g.Set(99)
	if a.Value() != 0 {
		t.Error("kind clash corrupted the counter")
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pfair_migrations_total", "", "migrations").Add(3)
	reg.Counter("pfair_acct_migrations_total", `task="A"`, "per task").Add(2)
	reg.Counter("pfair_acct_migrations_total", `task="B"`, "per task").Add(1)
	reg.Gauge("pfair_ready_queue_len", "", "ready length").Set(4)
	h := reg.Histogram("pfair_tardiness_slots", "", "tardiness", []int64{1, 2})
	h.Observe(1)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pfair_migrations_total migrations",
		"# TYPE pfair_migrations_total counter",
		"pfair_migrations_total 3",
		`pfair_acct_migrations_total{task="A"} 2`,
		`pfair_acct_migrations_total{task="B"} 1`,
		"# TYPE pfair_ready_queue_len gauge",
		"pfair_ready_queue_len 4",
		"# TYPE pfair_tardiness_slots histogram",
		`pfair_tardiness_slots_bucket{le="1"} 1`,
		`pfair_tardiness_slots_bucket{le="2"} 1`,
		`pfair_tardiness_slots_bucket{le="+Inf"} 2`,
		"pfair_tardiness_slots_sum 6",
		"pfair_tardiness_slots_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The per-family TYPE header must appear exactly once.
	if n := strings.Count(out, "# TYPE pfair_acct_migrations_total"); n != 1 {
		t.Errorf("TYPE header for labeled family appears %d times", n)
	}
}

func TestEscapeLabel(t *testing.T) {
	if got := EscapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("EscapeLabel = %q", got)
	}
}

// TestWritePrometheusEscapedLabels: a hostile label value registered via
// EscapeLabel must appear escaped — never raw — in the exposition, so a
// task named with quotes or newlines cannot corrupt the text format.
func TestWritePrometheusEscapedLabels(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", `task="`+EscapeLabel("a\"b\\c\nd")+`"`, "").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `x_total{task="a\"b\\c\nd"} 1`) {
		t.Errorf("escaped series missing:\n%s", out)
	}
	// A raw newline inside a sample line would split it into two garbage
	// lines; every line must carry either a # prefix or a sample.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" || (!strings.HasPrefix(line, "#") && !strings.Contains(line, " ")) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestWritePrometheusBucketsCumulative: bucket samples must be cumulative
// and non-decreasing in le order, ending at the +Inf bucket == _count —
// the Prometheus histogram contract scrapers rely on.
func TestWritePrometheusBucketsCumulative(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "", "", []int64{1, 2, 4})
	for _, v := range []int64{0, 1, 3, 3, 9} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// ≤1: {0,1} → 2; ≤2: 2; ≤4: +{3,3} → 4; +Inf: 5.
	wantOrder := []string{
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="2"} 2`,
		`lat_bucket{le="4"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_count 5`,
	}
	last := -1
	for _, want := range wantOrder {
		i := strings.Index(out, want)
		if i < 0 {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
		if i < last {
			t.Errorf("%q appears out of le order", want)
		}
		last = i
	}
}

// TestWritePrometheusHelpOnce: HELP, like TYPE, appears exactly once per
// family even when the family has many labeled series.
func TestWritePrometheusHelpOnce(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("f_total", `task="A"`, "the help text").Inc()
	reg.Counter("f_total", `task="B"`, "the help text").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, "# HELP f_total"); n != 1 {
		t.Errorf("HELP appears %d times, want 1:\n%s", n, out)
	}
	if n := strings.Count(out, "# TYPE f_total"); n != 1 {
		t.Errorf("TYPE appears %d times, want 1:\n%s", n, out)
	}
}

func TestWriteSummarySorted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z_total", "", "").Inc()
	reg.Counter("a_total", "", "").Inc()
	reg.Histogram("m_hist", "", "", []int64{1}).Observe(3)
	var b strings.Builder
	if err := reg.WriteSummary(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	ia, im, iz := strings.Index(out, "a_total"), strings.Index(out, "m_hist"), strings.Index(out, "z_total")
	if ia < 0 || im < 0 || iz < 0 || !(ia < im && im < iz) {
		t.Errorf("summary not sorted:\n%s", out)
	}
	if !strings.Contains(out, "m_hist count=1 sum=3") {
		t.Errorf("histogram summary wrong:\n%s", out)
	}
}

func TestSchedulerMetrics(t *testing.T) {
	m := NewSchedulerMetrics(nil)
	if m.Registry() == nil {
		t.Fatal("nil registry not defaulted")
	}
	if again := NewSchedulerMetrics(m.Registry()); again.Migrations != m.Migrations {
		t.Fatal("re-registering in the same registry must return the same handles")
	}
	m.Migrations.Inc()
	m.ReadyLen.Set(4)
	m.Occupancy.Observe(2)
	var b strings.Builder
	if err := m.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"pfair_migrations_total 1",
		"pfair_ready_queue_len 4",
		"pfair_slot_occupancy_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	// Per-task series come from Accounting alone: the scheduler-wide
	// block exports no task label.
	if strings.Contains(out, "task=") {
		t.Errorf("scheduler metrics export a per-task series:\n%s", out)
	}
}

// TestInstrumentUpdatesZeroAlloc pins the registry's hot-path contract.
func TestInstrumentUpdatesZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "", "")
	g := reg.Gauge("g", "", "")
	h := reg.Histogram("h", "", "", []int64{1, 8, 64})
	m := NewSchedulerMetrics(reg)
	v := int64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		c.Inc()
		c.Add(2)
		g.Set(v)
		h.Observe(v % 100)
		m.Preemptions.Inc()
		m.Tardiness.Observe(v % 7)
		v++
	})
	if allocs != 0 {
		t.Fatalf("instrument updates allocate %v/op, want 0", allocs)
	}
}
