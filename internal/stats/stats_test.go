package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"netdimm/internal/sim"
)

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{}
	b.Add(TxCopy, 100*sim.Nanosecond)
	b.Add(Wire, 300*sim.Nanosecond)
	b.Add(TxCopy, 100*sim.Nanosecond)
	if b.Total() != 500*sim.Nanosecond {
		t.Fatalf("Total = %v", b.Total())
	}
}

func TestBreakdownPlus(t *testing.T) {
	a := Breakdown{TxCopy: 100, Wire: 200}
	b := Breakdown{Wire: 100, RxDMA: 50}
	c := a.Plus(b)
	if c[TxCopy] != 100 || c[Wire] != 300 || c[RxDMA] != 50 {
		t.Fatalf("Plus = %v", c)
	}
	// Plus must not mutate operands.
	if a[Wire] != 200 || b[Wire] != 100 {
		t.Fatal("Plus mutated an operand")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{Wire: 300 * sim.Nanosecond, TxFlush: 80 * sim.Nanosecond}
	s := b.String()
	if !strings.Contains(s, "wire=") || !strings.Contains(s, "txFlush=") || !strings.Contains(s, "total=") {
		t.Fatalf("String = %q", s)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Time(i))
	}
	if h.Count() != 100 {
		t.Fatal("count wrong")
	}
	if h.Mean() != 50 { // (1+...+100)/100 = 50.5 -> integer division 50
		t.Fatalf("Mean = %v", h.Mean())
	}
	if p := h.Percentile(50); p < 49 || p > 51 {
		t.Fatalf("P50 = %v", p)
	}
	if p := h.Percentile(99); p < 98 || p > 100 {
		t.Fatalf("P99 = %v", p)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

// Property: merging sharded histograms is equivalent to observing every
// sample in one histogram — same count, sum, and every percentile.
func TestHistogramMergeEquivalence(t *testing.T) {
	f := func(raw []uint16, cut1, cut2 uint8) bool {
		whole := &Histogram{}
		shards := [3]*Histogram{{}, {}, {}}
		for i, v := range raw {
			whole.Observe(sim.Time(v))
			shards[(i+int(cut1)+int(cut2))%3].Observe(sim.Time(v))
		}
		merged := &Histogram{}
		for _, s := range shards {
			merged.Merge(s)
		}
		if merged.Count() != whole.Count() || merged.Mean() != whole.Mean() {
			return false
		}
		for _, p := range []float64{0, 25, 50, 90, 99, 100} {
			if merged.Percentile(p) != whole.Percentile(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeEdgeCases(t *testing.T) {
	h := &Histogram{}
	h.Observe(10)
	h.Merge(nil) // nil source is a no-op
	var empty Histogram
	h.Merge(&empty) // empty source is a no-op
	if h.Count() != 1 || h.Mean() != 10 {
		t.Fatalf("merge of nil/empty changed histogram: count=%d mean=%v", h.Count(), h.Mean())
	}
	// Merging after a percentile query (sorted state) must re-sort.
	o := &Histogram{}
	o.Observe(1)
	_ = h.Percentile(50)
	h.Merge(o)
	if h.Percentile(0) != 1 || h.Percentile(100) != 10 || h.Count() != 2 {
		t.Fatalf("merge after sort: min=%v max=%v count=%d",
			h.Percentile(0), h.Percentile(100), h.Count())
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := &Histogram{}
		for _, v := range raw {
			h.Observe(sim.Time(v))
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := h.Percentile(pa), h.Percentile(pb)
		return va <= vb && va >= h.Min() && vb <= h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReduction(t *testing.T) {
	if r := Reduction(200, 100); r != 0.5 {
		t.Fatalf("Reduction = %v", r)
	}
	if r := Reduction(100, 150); r != -0.5 {
		t.Fatalf("negative Reduction = %v", r)
	}
	if Reduction(0, 5) != 0 {
		t.Fatal("zero-old Reduction should be 0")
	}
}

func TestBreakdownStringEmpty(t *testing.T) {
	// Regression: an all-zero breakdown used to render with a leading
	// space (" total=0") because the total was appended unconditionally
	// with its separator.
	for name, b := range map[string]Breakdown{
		"empty":      {},
		"zero-comps": {Wire: 0, TxCopy: 0},
	} {
		if got := b.String(); got != "total=0ps" {
			t.Errorf("%s breakdown String = %q, want %q", name, got, "total=0ps")
		}
	}
	// Non-empty stays exactly as before the fix.
	b := Breakdown{TxCopy: 40, Wire: 300}
	if got, want := b.String(), "txCopy=40ps wire=300ps total=340ps"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// Property: NaN never reaches the float-to-int rank conversion (whose
// result is platform-defined); infinities clamp like out-of-range p.
func TestPercentileNonFinite(t *testing.T) {
	h := &Histogram{}
	if h.Percentile(math.NaN()) != 0 {
		t.Error("empty histogram, NaN p: want 0")
	}
	f := func(raw []uint16) bool {
		h := &Histogram{}
		for _, v := range raw {
			h.Observe(sim.Time(v))
		}
		if h.Percentile(math.NaN()) != 0 {
			return false
		}
		return h.Percentile(math.Inf(-1)) == h.Min() && h.Percentile(math.Inf(1)) == h.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"size", "latency"}}
	tb.AddRow("64", "1.13us")
	tb.AddRow("1514", "2.00us")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "size") || !strings.Contains(lines[1], "---") {
		t.Fatalf("table header wrong:\n%s", s)
	}
}

func TestTableRaggedRows(t *testing.T) {
	// Regression: a row wider than the header used to panic String() with
	// an index out of range, because column widths were sized to the
	// header only.
	tb := &Table{Header: []string{"arch", "p99"}}
	tb.AddRow("dNIC", "9.1us", "saturated") // wider than header
	tb.AddRow("iNIC")                       // narrower than header
	tb.AddRow("NetDIMM", "2.6us")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("table lines = %d:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[2], "saturated") {
		t.Errorf("wide row lost its extra cell:\n%s", s)
	}
	// The extra column must be padded like any other so the table stays
	// rectangular in the separator line.
	if got, want := len(lines[1]), len("NetDIMM")+2+len("9.1us")+2+len("saturated"); got != want {
		t.Errorf("separator width %d, want %d:\n%s", got, want, s)
	}
	// A headerless table with rows must still render.
	empty := &Table{}
	empty.AddRow("a", "bb")
	if out := empty.String(); !strings.Contains(out, "bb") {
		t.Errorf("headerless table String = %q", out)
	}
}
