// Package stats provides the measurement types the experiments report:
// per-packet latency breakdowns matching the paper's Fig. 11 components,
// histograms with percentiles, and small rendering helpers for the CLI and
// EXPERIMENTS.md tables.
package stats

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"netdimm/internal/sim"
)

// Component is one slice of the one-way network latency (paper Fig. 11).
type Component uint8

// The breakdown components of Fig. 11, in presentation order. txCopy/rxCopy
// are driver memory copies and allocation; txDMA/rxDMA are NIC-side data
// movement; wire is the physical layer; IOReg is CPU<->NIC register access;
// txFlush and rxInvalidate are the NetDIMM driver's cache-coherency
// operations.
const (
	TxCopy Component = iota
	RxCopy
	TxDMA
	RxDMA
	Wire
	IOReg
	TxFlush
	RxInvalidate

	numComponents = int(RxInvalidate) + 1
)

var componentNames = [numComponents]string{
	"txCopy", "rxCopy", "txDMA", "rxDMA", "wire", "I/O reg acc", "txFlush", "rxInvalidate",
}

// String returns the component's name as the figures and trace tracks
// print it.
func (c Component) String() string {
	if int(c) < numComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("Component(%d)", c)
}

// Components lists every component in presentation order.
var Components = []Component{TxCopy, RxCopy, TxDMA, RxDMA, Wire, IOReg, TxFlush, RxInvalidate}

// Breakdown is a per-packet latency decomposition, indexed by Component.
// It is a plain value: copying it copies every component.
type Breakdown [numComponents]sim.Time

// Add accumulates d into component c.
func (b *Breakdown) Add(c Component, d sim.Time) { b[c] += d }

// Total returns the summed latency.
func (b Breakdown) Total() sim.Time {
	var t sim.Time
	for _, v := range b {
		t += v
	}
	return t
}

// Plus returns the component-wise sum of two breakdowns.
func (b Breakdown) Plus(o Breakdown) Breakdown {
	for c, v := range o {
		b[c] += v
	}
	return b
}

// String renders the breakdown compactly in presentation order.
func (b Breakdown) String() string {
	var sb strings.Builder
	for _, c := range Components {
		v := b[c]
		if v == 0 {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%v", c, v)
	}
	if sb.Len() > 0 {
		sb.WriteString(" ")
	}
	fmt.Fprintf(&sb, "total=%v", b.Total())
	return sb.String()
}

// Histogram collects latency samples for percentile reporting.
type Histogram struct {
	samples []sim.Time
	sorted  bool
	sum     sim.Time
}

// NewHistogram returns an empty histogram with room for n samples.
func NewHistogram(n int) *Histogram { return &Histogram{samples: make([]sim.Time, 0, n)} }

// Observe records one sample.
func (h *Histogram) Observe(v sim.Time) {
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
}

// Merge folds every sample of o into h (o is unchanged). Percentiles over
// the merged histogram equal percentiles over the union of the two sample
// sets — the property sweep runners rely on when aggregating per-cell
// histograms.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || len(o.samples) == 0 {
		return
	}
	h.samples = append(h.samples, o.samples...)
	h.sum += o.sum
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() sim.Time {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / sim.Time(len(h.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank, or 0 when empty. Out-of-range p clamps to the extremes
// (p <= 0 returns the minimum, p >= 100 the maximum, -Inf/+Inf included);
// NaN p returns 0 rather than leaving the rank to the platform-defined
// float-to-int conversion.
func (h *Histogram) Percentile(p float64) sim.Time {
	if len(h.samples) == 0 || math.IsNaN(p) {
		return 0
	}
	if !h.sorted {
		slices.Sort(h.samples)
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := int(p/100*float64(len(h.samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(h.samples) {
		rank = len(h.samples) - 1
	}
	return h.samples[rank]
}

// Max returns the largest sample.
func (h *Histogram) Max() sim.Time { return h.Percentile(100) }

// Reduction returns the relative improvement of new over old as a
// fraction: (old-new)/old. Positive means new is faster.
func Reduction(old, new sim.Time) float64 {
	if old == 0 {
		return 0
	}
	return float64(old-new) / float64(old)
}

// Table is a simple fixed-column text table for experiment output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns. Ragged rows are fine:
// widths cover the widest row, and rows shorter or longer than the header
// render without padding surprises.
func (t *Table) String() string {
	cols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > cols {
			cols = len(row)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
