package netdimm

import (
	"io"

	"netdimm/internal/experiments"
	"netdimm/internal/obs"
)

// Observation carries the instrumentation collected by one observed run:
// per-packet lifecycle spans (exported as Chrome trace-event JSON loadable
// in ui.perfetto.dev) and the metrics registry. A nil Observation — what
// the Run*Observed entry points return when cfg.Obs is zero — is safe to
// query and reports nothing collected.
type Observation struct {
	o *obs.Observer
}

func newObservation(o *obs.Observer) *Observation {
	if o == nil {
		return nil
	}
	return &Observation{o: o}
}

// Enabled reports whether the run collected any instrumentation.
func (ob *Observation) Enabled() bool { return ob != nil && ob.o != nil }

// WriteTrace writes the collected spans and series as Chrome trace-event
// JSON (open the file in ui.perfetto.dev or chrome://tracing). Writing a
// disabled observation produces a valid, empty trace.
func (ob *Observation) WriteTrace(w io.Writer) error {
	if !ob.Enabled() {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[]}`+"\n")
		return err
	}
	return ob.o.WriteTrace(w)
}

// HasMetrics reports whether any metric was registered.
func (ob *Observation) HasMetrics() bool { return ob.Enabled() && ob.o.HasMetrics() }

// MetricsTable renders every collected counter, gauge and series as an
// aligned text table ("" when nothing was collected).
func (ob *Observation) MetricsTable() string {
	if !ob.HasMetrics() {
		return ""
	}
	return ob.o.MetricsTable()
}

// MetricsCSV renders the same rows as CSV ("" when nothing was collected).
func (ob *Observation) MetricsCSV() string {
	if !ob.HasMetrics() {
		return ""
	}
	return ob.o.MetricsCSV()
}

// RunFig11Observed regenerates Fig. 11 on the system described by cfg:
// the one-way latency breakdown of dNIC, iNIC and NetDIMM across packet
// sizes. The observability plane is armed per cfg.Obs: with tracing on,
// each packet size becomes one trace process whose per-component span
// sums reconstruct the reported Fig. 11 breakdown; with metrics on,
// substrate counters and series (PCIe link activity, NetDIMM rank
// occupancy, nMC queue depth, engine event volume) fold into the
// observation. A zero cfg.Obs returns a nil Observation.
func RunFig11Observed(cfg Config, sizes []int, parallelism int) (_ []Fig11Result, _ *Observation, err error) {
	defer guard(&err)
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(sizes) == 0 {
		sizes = experiments.PaperSizes
	}
	rows, o, err := experiments.Fig11Observed(cfg, sizes, parallelism, cfg.Obs)
	if err != nil {
		return nil, nil, err
	}
	return rows, newObservation(o), nil
}
