package obs

import (
	"encoding/json"
	"strings"
	"testing"

	"netdimm/internal/sim"
)

// Every hook must be a no-op on the nil values a disabled plane hands out.
func TestNilSafety(t *testing.T) {
	var o *Observer
	if o.Spec().Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	c := o.Cell(0)
	if c != nil {
		t.Fatal("nil observer handed out a cell")
	}
	c.Track("x").Span("s", 0, 1)
	c.Recorder("p").Advance("comp", "phase", 5)
	c.Metrics().Counter("n").Inc()
	c.Metrics().Gauge("g").Set(3)
	c.Metrics().Series("s").Sample(1, 2)
	NewEngineProbe(c.Metrics(), "eng").Attach(sim.NewEngine())
	if got := c.Metrics().Counter("n").Value(); got != 0 {
		t.Fatalf("nil counter holds %d", got)
	}
}

// A disabled spec must also disable cells that do exist.
func TestDisabledSpec(t *testing.T) {
	o := New(Spec{}, "cell0")
	c := o.Cell(0)
	if c.Track("x") != nil {
		t.Fatal("tracing off but Track returned a collector")
	}
	if c.Recorder("p") != nil {
		t.Fatal("tracing off but Recorder returned a collector")
	}
	if c.Metrics() != nil {
		t.Fatal("metrics off but Metrics returned a registry")
	}
}

// The recorder's core invariant: spans on a component's track sum to
// exactly the durations fed through Advance.
func TestRecorderSumsMatch(t *testing.T) {
	o := New(Spec{Trace: true}, "cell")
	c := o.Cell(0)
	r := c.Recorder("dNIC")
	r.Advance("txCopy", "skb", 100)
	r.Advance("txCopy", "copy", 250)
	r.Advance("wire", "wire", 500)
	r.Advance("rxCopy", "deliver", 70)
	r.Advance("txCopy", "zero", 0) // dropped, cursor unchanged

	if got := c.Track("dNIC/txCopy").Sum(); got != 350 {
		t.Fatalf("txCopy track sums to %d, want 350", got)
	}
	if got := c.Track("dNIC/wire").Sum(); got != 500 {
		t.Fatalf("wire track sums to %d, want 500", got)
	}
	if r.Now() != 920 {
		t.Fatalf("cursor at %d, want 920", r.Now())
	}
	// Spans must tile the timeline: each starts where the previous ended.
	var all []Span
	for _, tr := range c.Tracks() {
		all = append(all, tr.Spans()...)
	}
	var cursor sim.Time
	for i, s := range all {
		if s.Start != cursor {
			t.Fatalf("span %d starts at %d, want %d", i, s.Start, cursor)
		}
		cursor = s.End
	}
}

func TestRegistryOrderAndDedup(t *testing.T) {
	o := New(Spec{Metrics: true}, "cell")
	reg := o.Cell(0).Metrics()
	reg.Counter("b").Add(2)
	reg.Counter("a").Inc()
	if same := reg.Counter("b"); same.Value() != 2 {
		t.Fatalf("counter b not shared: %d", same.Value())
	}
	names := []string{}
	for _, c := range reg.Counters() {
		names = append(names, c.Name())
	}
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("counter order %v, want [b a]", names)
	}

	s := reg.Series("depth")
	s.Sample(10, 1)
	s.Sample(20, 1) // run-length compressed away
	s.Sample(30, 2)
	s.Sample(30, 3) // same instant overwrites
	if s.Count() != 2 || s.Last() != 3 || s.Max() != 3 {
		t.Fatalf("series = %+v, want 2 points ending at 3", s.Samples())
	}
}

func TestEngineProbeCountsKernelActivity(t *testing.T) {
	o := New(Spec{Metrics: true}, "cell")
	reg := o.Cell(0).Metrics()
	eng := sim.NewEngine()
	NewEngineProbe(reg, "engine").Attach(eng)

	id := eng.Schedule(5, func() {})
	eng.Schedule(1, func() {})
	eng.Cancel(id)
	eng.Run()

	if got := reg.Counter("engine.scheduled").Value(); got != 2 {
		t.Fatalf("scheduled = %d, want 2", got)
	}
	if got := reg.Counter("engine.fired").Value(); got != 1 {
		t.Fatalf("fired = %d, want 1", got)
	}
	if got := reg.Counter("engine.cancelled").Value(); got != 1 {
		t.Fatalf("cancelled = %d, want 1", got)
	}
}

// The exported trace must be valid JSON in Chrome trace-event shape, with
// exact picosecond-resolution timestamps.
func TestWriteTraceJSON(t *testing.T) {
	o := New(Spec{Trace: true, Metrics: true}, "size=64", "size=256")
	c := o.Cell(0)
	c.Track("NetDIMM/txCopy").Span("skb \"alloc\"", 0, 1_234_567)
	c.Track("NetDIMM/wire").Span("wire", 1_234_567, 2_000_000)
	c.Metrics().Series("nmc.readq").Sample(10_000, 3)
	o.Cell(1).Track("dNIC/txCopy").Span("copy", 0, 42)

	var sb strings.Builder
	if err := o.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, sb.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var spans, meta, counters int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "M":
			meta++
		case "C":
			counters++
		}
	}
	// 2 process_name + 3 thread_name metadata, 3 spans, 1 counter sample.
	if meta != 5 || spans != 3 || counters != 1 {
		t.Fatalf("got %d meta, %d spans, %d counters; want 5/3/1", meta, spans, counters)
	}
	if !strings.Contains(sb.String(), `"ts":1.234567`) {
		t.Fatalf("expected exact microsecond timestamp 1.234567 in:\n%s", sb.String())
	}
}

func TestPsToMicros(t *testing.T) {
	cases := map[int64]string{
		0:             "0.000000",
		1:             "0.000001",
		999_999:       "0.999999",
		1_000_000:     "1.000000",
		1_234_567:     "1.234567",
		-42:           "-0.000042",
		3_000_000_001: "3000.000001",
	}
	for ps, want := range cases {
		if got := psToMicros(ps); got != want {
			t.Errorf("psToMicros(%d) = %q, want %q", ps, got, want)
		}
	}
}

func TestMetricsRendering(t *testing.T) {
	o := New(Spec{Metrics: true}, "cellA")
	reg := o.Cell(0).Metrics()
	reg.Counter("pcie.bytes").Add(4096)
	reg.Gauge("ring.depth").Set(7)
	reg.Series("nmc.readq").Sample(5, 2)
	if !o.HasMetrics() {
		t.Fatal("HasMetrics false with three metrics registered")
	}
	table := o.MetricsTable()
	for _, want := range []string{"pcie.bytes", "4096", "ring.depth", "nmc.readq"} {
		if !strings.Contains(table, want) {
			t.Fatalf("metrics table missing %q:\n%s", want, table)
		}
	}
	csv := o.MetricsCSV()
	if !strings.Contains(csv, "cellA,counter,pcie.bytes,4096,,") {
		t.Fatalf("metrics CSV missing counter row:\n%s", csv)
	}
}
