package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// small are scaled-down versions of the four workloads: the replicas must
// reproduce the facade's rows on them exactly like on the pinned sizes.
var small = []struct {
	name    string
	call    func(uint64, bool) (callResult, error)
	replica func(uint64, *tracer) ([]string, error)
}{
	{"rack", rackSize{hosts: 16, packets: 500, racks: []int{2}, loads: []float64{0.2}}.call,
		rackSize{hosts: 16, packets: 500, racks: []int{2}, loads: []float64{0.2}}.replica},
	{"incast", incastSize{hosts: 16, packets: 500, loads: []float64{0.22}}.call,
		incastSize{hosts: 16, packets: 500, loads: []float64{0.22}}.replica},
	{"latency", latencySize{packets: 200, seeds: 1}.call, latencySize{packets: 200, seeds: 1}.replica},
	{"allreduce", collSize{ranks: []int{8}, payload: 16 << 10}.call, collSize{ranks: []int{8}, payload: 16 << 10}.replica},
}

// TestReplicaMatchesFacade runs every replica on scaled-down cells and
// requires its rows to equal the facade's field for field, and every
// per-layer metric the result line carries to be measured.
func TestReplicaMatchesFacade(t *testing.T) {
	for _, w := range small {
		t.Run(w.name, func(t *testing.T) {
			full, err := w.call(11, false)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := w.call(11, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Bad)+len(twin.Bad) > 0 {
				t.Fatalf("conservation broken: %v %v", full.Bad, twin.Bad)
			}
			tr, err := tracePass(w.replica, 11, "")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tr.Rows, full.Rows) {
				t.Fatalf("replica rows differ from the facade's:\nfacade  %q\nreplica %q", full.Rows, tr.Rows)
			}
			m := perLayer(tr, []pair{{Full: childResult{WallS: 1, Call: full}, Twin: childResult{Call: twin}}})
			for _, d := range perLayerMetrics {
				if v, ok := m[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v, %v", d.Name, v, ok)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name       string
		base, cand []float64
		d          metricDef
		want       string
	}{
		{"same samples", base, base, d, verdictUnchanged},
		{"inside the bound", base, scale(base, 1.05), d, verdictUnchanged},
		{"regression", base, scale(base, 1.2), d, verdictWorse},
		{"gain", base, scale(base, 0.8), d, verdictBetter},
		{"higher is better", base, scale(base, 0.8), metricDef{Better: "higher", Bound: 0.10}, verdictWorse},
		// Quartile spread of about 40%: wider than the 10% bound, so
		// neither a 5% gain nor a 5% loss can be told from noise.
		{"wide baseline", []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 1.0, 0.9, 1.1}, scale(base, 1.05), d, verdictUnresolved},
		{"wide candidate", base, []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 1.0, 0.9, 1.1}, d, verdictUnresolved},
		{"wide but disjoint", []float64{2.0, 3.0, 2.5, 2.2, 2.8}, []float64{0.6, 1.4, 0.7, 1.3, 1.0}, d, verdictBetter},
	} {
		if got := verdict(c.base, c.cand, c.d); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSameHostClass(t *testing.T) {
	a := currentHost()
	if err := sameHostClass(a, a); err != nil {
		t.Fatal(err)
	}
	b := a
	b.CPUModel += " (other)"
	if sameHostClass(a, b) == nil {
		t.Fatal("compared results from different CPU models")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the repository's
// benchmark runner reads, in step with the metric and workload tables
// here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}

	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%+v\nthe benchmark:\n%+v", b.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json:\n%+v\nthe benchmark:\n%+v", b.PerLayer, perLayerMetrics)
	}
}
