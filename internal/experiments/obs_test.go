package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/stats"
)

// TestFig11SpanSumsMatchBreakdown pins the recorder invariant the exported
// fig11 trace relies on: for every architecture, the spans on each
// per-component track sum exactly to that component's entry in the
// reported breakdown, so the Perfetto view reconstructs Fig. 11.
func TestFig11SpanSumsMatchBreakdown(t *testing.T) {
	sizes := []int{64, 1024, 1514}
	rows, o, err := Fig11Observed(spec.TableOne(), sizes, 1,
		obs.Spec{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if o == nil {
		t.Fatal("enabled spec returned nil observer")
	}
	for i, row := range rows {
		cell := o.Cell(i)
		if cell == nil {
			t.Fatalf("no cell for size %d", row.Size)
		}
		if want := fmt.Sprintf("fig11/size=%d", row.Size); cell.Label() != want {
			t.Fatalf("cell %d label = %q, want %q", i, cell.Label(), want)
		}
		sums := make(map[string]sim.Time)
		for _, tr := range cell.Tracks() {
			for _, sp := range tr.Spans() {
				sums[tr.Name()] += sp.Duration()
			}
		}
		for arch, b := range map[string]stats.Breakdown{
			"dNIC": row.DNIC, "iNIC": row.INIC, "NetDIMM": row.NetDIMM,
		} {
			for _, comp := range stats.Components {
				want := b[comp]
				track := arch + "/" + comp.String()
				if got := sums[track]; got != want {
					t.Errorf("size %d: track %q spans sum to %v, breakdown says %v",
						row.Size, track, got, want)
				}
				delete(sums, track)
			}
		}
		// Every remaining track must belong to a non-breakdown plane
		// (engine, device metrics) — none may carry breakdown components.
		for name := range sums {
			for _, arch := range []string{"dNIC/", "iNIC/", "NetDIMM/"} {
				if len(name) > len(arch) && name[:len(arch)] == arch {
					t.Errorf("size %d: unexpected breakdown track %q", row.Size, name)
				}
			}
		}
	}
}

// TestFig11ObservedDeterministicTrace checks that instrumentation does not
// break run-to-run determinism: a sequential and an 8-way parallel observed
// run export byte-identical traces and identical results.
func TestFig11ObservedDeterministicTrace(t *testing.T) {
	sizes := []int{64, 256, 1024, 1514}
	ospec := obs.Spec{Trace: true, Metrics: true}
	rowsSeq, oSeq, err := Fig11Observed(spec.TableOne(), sizes, 1, ospec)
	if err != nil {
		t.Fatal(err)
	}
	rowsPar, oPar, err := Fig11Observed(spec.TableOne(), sizes, 8, ospec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rowsSeq {
		if rowsSeq[i].Size != rowsPar[i].Size ||
			rowsSeq[i].DNIC.Total() != rowsPar[i].DNIC.Total() ||
			rowsSeq[i].INIC.Total() != rowsPar[i].INIC.Total() ||
			rowsSeq[i].NetDIMM.Total() != rowsPar[i].NetDIMM.Total() {
			t.Errorf("row %d differs: seq %+v, par %+v", i, rowsSeq[i], rowsPar[i])
		}
	}
	var seq, par bytes.Buffer
	if err := oSeq.WriteTrace(&seq); err != nil {
		t.Fatal(err)
	}
	if err := oPar.WriteTrace(&par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Errorf("sequential and parallel traces differ (%d vs %d bytes)", seq.Len(), par.Len())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(seq.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("observed fig11 trace has no events")
	}
}

// TestFig11ObservedDisabledIdentical checks the zero-overhead contract at
// the experiment level: a run with a zero obs.Spec returns a nil observer
// and the exact numbers of a fully instrumented run.
func TestFig11ObservedDisabledIdentical(t *testing.T) {
	sizes := []int{64, 1514}
	plain, o, err := Fig11Observed(spec.TableOne(), sizes, 1, obs.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		t.Error("zero spec returned a non-nil observer")
	}
	rows, _, err := Fig11Observed(spec.TableOne(), sizes, 1, obs.Spec{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].DNIC.Total() != rows[i].DNIC.Total() ||
			plain[i].INIC.Total() != rows[i].INIC.Total() ||
			plain[i].NetDIMM.Total() != rows[i].NetDIMM.Total() {
			t.Errorf("row %d: observed-disabled run differs from instrumented run", i)
		}
	}
}

// TestFaultSweepObservedDeterministic runs the instrumented fault sweep
// sequentially and in parallel and requires identical traces — the
// fault-plane spans (retransmit, backoff, give-up) must not depend on
// worker scheduling.
func TestFaultSweepObservedDeterministic(t *testing.T) {
	rates := []float64{0, 0.05, 0.2}
	ospec := obs.Spec{Trace: true, Metrics: true}
	_, oSeq, err := FaultSweepObserved(spec.TableOne(), rates, 60, 0, 1, ospec)
	if err != nil {
		t.Fatal(err)
	}
	_, oPar, err := FaultSweepObserved(spec.TableOne(), rates, 60, 0, 8, ospec)
	if err != nil {
		t.Fatal(err)
	}
	var seq, par bytes.Buffer
	if err := oSeq.WriteTrace(&seq); err != nil {
		t.Fatal(err)
	}
	if err := oPar.WriteTrace(&par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Errorf("sequential and parallel fault-sweep traces differ (%d vs %d bytes)",
			seq.Len(), par.Len())
	}
}

// TestFaultTailsMergeAcrossRates checks that the per-architecture tails
// merge every rate's histogram: counts add up and the merged percentiles
// fall inside the per-rate extremes.
func TestFaultTailsMergeAcrossRates(t *testing.T) {
	rates := []float64{0, 0.1}
	rows, err := FaultSweep(spec.TableOne(), rates, 80, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tails := FaultTails(rows)
	if len(tails) != len(Archs) {
		t.Fatalf("tails = %d archs, want %d", len(tails), len(Archs))
	}
	perArch := make(map[string]int)
	for _, r := range rows {
		if r.Hist != nil {
			perArch[r.Arch] += r.Hist.Count()
		}
	}
	for _, tl := range tails {
		if tl.Count != perArch[tl.Arch] {
			t.Errorf("%s: merged count %d, want %d", tl.Arch, tl.Count, perArch[tl.Arch])
		}
		if tl.P99 < tl.P50 {
			t.Errorf("%s: p99 %v < p50 %v", tl.Arch, tl.P99, tl.P50)
		}
	}
}
