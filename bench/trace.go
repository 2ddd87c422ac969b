package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"netdimm/internal/driver"
	"netdimm/internal/nic"
	"netdimm/internal/sim"
	"netdimm/internal/stats"
)

// The traced pass records one span around every call the benchmark's
// replicas make into a layer. A span's name starts with its layer
// ("fabric.inject" belongs to fabric); spans named "cell.*" are the
// replica's own glue (the code that mirrors internal/experiments) and are
// attributed to no layer. Work that runs inside Engine.Run without a
// public boundary — fabric hops, port dequeues, the event heap — shows up
// as the self time of the "sim.run" span and is split afterwards with
// event counts and a separate event-cost replay (see split in report.go).

// maxChromeSpans caps how many spans -chrome writes.
const maxChromeSpans = 10000

type spanID int32

type span struct {
	id         spanID
	parent     int32 // index into the cell's spans, -1 for a root
	start, end int64 // ns since the tracer started
}

// spanAgg aggregates every span of one name across the pass.
type spanAgg struct {
	count       int
	total, self int64
	durs        []int64
}

// engineCell is one cell's event-engine record for the derived split.
type engineCell struct {
	Events      uint64  `json:"events"`
	PeakPending int     `json:"peak_pending"`
	RunSelfNs   int64   `json:"run_self_ns"`
	Hops        uint64  `json:"hops"`
	EventNs     float64 `json:"event_ns"`
}

// tracer holds the traced pass's spans (one cell at a time, in memory)
// and everything the replicas count along the way.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	names []string
	ids   map[string]spanID
	aggs  []spanAgg
	// chrome keeps the pass's first maxChromeSpans spans for -chrome.
	chrome []chromeEvent

	engines []engineCell
	// replayNs is time spent in event-cost replays, which the traced wall
	// excludes.
	replayNs int64
	// devEvents and devCalls count NetDIMM device events fired inside
	// driver TX ([0]) and RX ([1]) calls, and those calls.
	devEvents, devCalls [2]uint64
	// allocFast and allocSlow sum the receivers' allocCache outcomes.
	allocFast, allocSlow uint64
	injected, dropped    uint64
	generated            int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: map[string]spanID{}}
}

// id returns the span id for name, registering it on first use.
func (t *tracer) id(name string) spanID {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := spanID(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	t.aggs = append(t.aggs, spanAgg{})
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(id spanID) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{id: id, parent: parent, start: t.now()})
	t.stack = append(t.stack, int32(len(t.spans)-1))
}

func (t *tracer) end() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].end = t.now()
}

// endCell folds the cell's spans into the pass aggregates and returns the
// cell's self time per span id. Every span must have ended.
func (t *tracer) endCell() []int64 {
	if len(t.stack) != 0 {
		panic(fmt.Sprintf("bench: cell ended with %d open spans", len(t.stack)))
	}
	self := make([]int64, len(t.names))
	selfOf := make([]int64, len(t.spans))
	for i, s := range t.spans {
		selfOf[i] += s.end - s.start
		if s.parent >= 0 {
			selfOf[s.parent] -= s.end - s.start
		}
	}
	base := int32(len(t.chrome))
	for i, s := range t.spans {
		a := &t.aggs[s.id]
		d := s.end - s.start
		a.count++
		a.total += d
		a.self += selfOf[i]
		a.durs = append(a.durs, d)
		self[s.id] += selfOf[i]
		if len(t.chrome) < maxChromeSpans {
			parent := s.parent
			if parent >= 0 {
				parent += base
			}
			t.chrome = append(t.chrome, chromeEvent{
				Name: t.names[s.id], Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(d) / 1e3,
				Pid: 1, Tid: 1, Args: map[string]int32{"parent": parent},
			})
		}
	}
	t.spans = t.spans[:0]
	return self
}

// driverCall times one Machine.TX or Machine.RX call under span id and,
// for a NetDIMM endpoint, counts the device events the call ran.
func (t *tracer) driverCall(id spanID, m driver.Machine, p nic.Packet, rx bool) stats.Breakdown {
	nd, _ := m.(*driver.NetDIMMDriver)
	var fired uint64
	if nd != nil {
		fired = nd.Eng.Fired()
	}
	t.begin(id)
	var b stats.Breakdown
	if rx {
		b = m.RX(p)
	} else {
		b = m.TX(p)
	}
	t.end()
	if nd != nil {
		side := 0
		if rx {
			side = 1
		}
		t.devEvents[side] += nd.Eng.Fired() - fired
		t.devCalls[side]++
	}
	return b
}

// receiverAllocs adds a receiving endpoint's allocCache outcomes (NetDIMM
// only; the NIC drivers have no allocCache).
func (t *tracer) receiverAllocs(m driver.Machine) {
	if nd, ok := m.(*driver.NetDIMMDriver); ok {
		st := nd.Stats()
		t.allocFast += st.AllocFast
		t.allocSlow += st.AllocSlow
	}
}

// pendingProbe records an engine's high-water mark of pending events.
type pendingProbe struct {
	eng  *sim.Engine
	peak int
}

func (p *pendingProbe) OnSchedule(sim.Time) {
	if n := p.eng.Pending(); n > p.peak {
		p.peak = n
	}
}
func (p *pendingProbe) OnFire(sim.Time)   {}
func (p *pendingProbe) OnCancel(sim.Time) {}

// runEngine runs a cell engine to completion under a sim.run span.
func (t *tracer) runEngine(eng *sim.Engine) error {
	t.begin(t.id("sim.run"))
	eng.Run()
	t.end()
	return eng.Err()
}

// recordEngine closes a cell that ran an event engine: it folds the
// cell's spans and stores the engine record with the event-cost replay at
// the cell's peak pending depth.
func (t *tracer) recordEngine(eng *sim.Engine, probe *pendingProbe, hops uint64) {
	self := t.endCell()
	start := time.Now()
	perEvent := eventNs(probe.peak)
	t.replayNs += time.Since(start).Nanoseconds()
	t.engines = append(t.engines, engineCell{
		Events:      eng.Fired(),
		PeakPending: probe.peak,
		RunSelfNs:   self[t.id("sim.run")],
		Hops:        hops,
		EventNs:     perEvent,
	})
}

// spanStats is one span name's aggregate as reported.
type spanStats struct {
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
}

func (t *tracer) spanStats() map[string]spanStats {
	out := make(map[string]spanStats, len(t.names))
	for id, a := range t.aggs {
		if a.count == 0 {
			continue
		}
		sort.Slice(a.durs, func(i, j int) bool { return a.durs[i] < a.durs[j] })
		out[t.names[id]] = spanStats{
			Count: a.count, TotalNs: a.total, SelfNs: a.self,
			P50Ns: float64(a.durs[(len(a.durs)-1)/2]),
			P99Ns: float64(a.durs[(len(a.durs)-1)*99/100]),
		}
	}
	return out
}

// layerOf returns a span name's layer: the prefix before its first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int32 `json:"args"`
}

// writeChrome writes the kept spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	data, err := json.Marshal(map[string]any{"traceEvents": t.chrome})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
