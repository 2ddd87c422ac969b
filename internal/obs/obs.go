// Package obs is the observability plane: zero-overhead-when-disabled
// instrumentation threaded through the simulator's model layers.
//
// Three kinds of data are collected. Engine probes (probe.go) count kernel
// activity through the sim.Probe interface. Span tracks record per-packet
// lifecycle intervals — driver allocation, copies, flushes, memory-channel
// transactions, DMA, wire time, fault-plane retransmits — which trace.go
// exports as Chrome trace-event JSON loadable in ui.perfetto.dev. The
// metrics registry (registry.go) holds named counters, gauges and
// time-series samplers (memctrl queue depth, DRAM bank occupancy, PCIe
// link activity, NVDIMM-P outstanding transactions) rendered by
// metrics.go.
//
// The plane follows one convention throughout: every accessor is nil-safe,
// and disabled instrumentation is represented by nil. A nil *Cell hands
// out nil Tracks, Recorders and Registries; recording on any of them is a
// no-op. Model code therefore carries at most a nil pointer field and one
// predictable branch per hook when observation is off, and no hook ever
// allocates in that state.
//
// Determinism is part of the contract: collectors never read the wall
// clock, never perturb event ordering, and iterate everything in creation
// order, so an instrumented run produces byte-identical exports for
// identical seeds regardless of experiment-level parallelism (each sweep
// cell owns a private Cell, merged in cell-index order).
package obs

import "netdimm/internal/sim"

// Spec selects which instrumentation a run collects. It is the
// JSON-addressable knob a scenario or Config carries; the zero value
// disables everything.
type Spec struct {
	// Trace enables span collection for Chrome trace-event export.
	Trace bool
	// Metrics enables the counter/gauge/series registry.
	Metrics bool
}

// Enabled reports whether any instrumentation is requested.
func (s Spec) Enabled() bool { return s.Trace || s.Metrics }

// Observer owns the instrumentation of one experiment run: one Cell per
// sweep cell, pre-created before the fan-out so parallel cells never
// contend or allocate shared state.
type Observer struct {
	spec  Spec
	cells []*Cell
}

// New returns an Observer with one Cell per label. A disabled spec still
// yields a valid Observer whose cells collect nothing.
func New(spec Spec, labels ...string) *Observer {
	o := &Observer{spec: spec}
	for _, l := range labels {
		o.cells = append(o.cells, &Cell{label: l, spec: spec})
	}
	return o
}

// Spec returns the observer's configuration (zero when o is nil).
func (o *Observer) Spec() Spec {
	if o == nil {
		return Spec{}
	}
	return o.spec
}

// Cell returns cell i, or nil when o is nil or i is out of range — the nil
// Cell then disables every downstream hook.
func (o *Observer) Cell(i int) *Cell {
	if o == nil || i < 0 || i >= len(o.cells) {
		return nil
	}
	return o.cells[i]
}

// Cells returns the cells in creation (cell-index) order.
func (o *Observer) Cells() []*Cell {
	if o == nil {
		return nil
	}
	return o.cells
}

// Cell is the instrumentation sink of one sweep cell. Cells are not safe
// for concurrent use; the parallel experiment runner gives each cell to
// exactly one worker, matching the one-engine-per-cell contract.
type Cell struct {
	label  string
	spec   Spec
	tracks []*Track
	byName map[string]*Track
	reg    *Registry
}

// Label returns the cell's display label (its Perfetto process name).
func (c *Cell) Label() string {
	if c == nil {
		return ""
	}
	return c.label
}

// Track returns the named span track, creating it on first use. It
// returns nil — a universal no-op — when c is nil or tracing is off.
func (c *Cell) Track(name string) *Track {
	if c == nil || !c.spec.Trace {
		return nil
	}
	if t, ok := c.byName[name]; ok {
		return t
	}
	if c.byName == nil {
		c.byName = make(map[string]*Track)
	}
	t := &Track{name: name}
	c.byName[name] = t
	c.tracks = append(c.tracks, t)
	return t
}

// Tracks returns the cell's tracks in creation order.
func (c *Cell) Tracks() []*Track {
	if c == nil {
		return nil
	}
	return c.tracks
}

// Metrics returns the cell's registry, or nil when c is nil or metrics
// are off.
func (c *Cell) Metrics() *Registry {
	if c == nil || !c.spec.Metrics {
		return nil
	}
	if c.reg == nil {
		c.reg = &Registry{}
	}
	return c.reg
}

// Span is one recorded [Start, End) interval on a track.
type Span struct {
	Name  string
	Start sim.Time
	End   sim.Time
}

// Duration returns the span's length.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Track is one row of the exported trace: all spans of one component, in
// recording order.
type Track struct {
	name  string
	spans []Span
}

// Name returns the track's display name (its Perfetto thread name).
func (t *Track) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Span records one interval; a nil Track or an inverted interval drops it.
func (t *Track) Span(name string, start, end sim.Time) {
	if t == nil || end < start {
		return
	}
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end})
}

// Spans returns the recorded spans in recording order.
func (t *Track) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Recorder lays spans end to end on a virtual per-packet timeline. The
// analytic driver paths account costs as durations, not instants; the
// recorder gives each phase a concrete [cursor, cursor+d) interval, so the
// spans on a component's track sum exactly to that component's breakdown
// entry — the invariant that lets an exported fig11 trace reconstruct the
// paper's Fig. 11 decomposition.
type Recorder struct {
	cell   *Cell
	prefix string
	cursor sim.Time
}

// Recorder returns a span recorder whose tracks are named
// prefix+"/"+component, or nil (a no-op recorder) when tracing is off.
func (c *Cell) Recorder(prefix string) *Recorder {
	if c == nil || !c.spec.Trace {
		return nil
	}
	return &Recorder{cell: c, prefix: prefix}
}

// Advance lays the next span — phase name of the given component, lasting
// d — starting where the previous span ended, then moves the cursor.
// Non-positive durations are dropped without moving the cursor.
func (r *Recorder) Advance(component, name string, d sim.Time) {
	if r == nil || d <= 0 {
		return
	}
	r.cell.Track(r.prefix+"/"+component).Span(name, r.cursor, r.cursor+d)
	r.cursor += d
}

// Now returns the virtual-timeline cursor.
func (r *Recorder) Now() sim.Time {
	if r == nil {
		return 0
	}
	return r.cursor
}
