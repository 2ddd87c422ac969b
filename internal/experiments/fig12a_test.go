package experiments

import (
	"reflect"
	"testing"

	"netdimm/internal/sim"
	"netdimm/internal/spec"
	"netdimm/internal/workload"
)

// TestFig12aMatchesPerCellReference holds the one-cell-per-cluster Fig12a
// to the per-(cluster, switch latency) cells it replaced, row for row, over
// random cluster subsets, unsorted, duplicated, single and 0ns switch
// latency lists, 1 to 400 packets, several seeds and parallelism 1 and 3.
func TestFig12aMatchesPerCellReference(t *testing.T) {
	latencies := []sim.Time{0, 25 * sim.Nanosecond, 50 * sim.Nanosecond, 100 * sim.Nanosecond, 200 * sim.Nanosecond, 1234}
	r := sim.NewRand(12)
	for trial := 0; trial < 40; trial++ {
		var clusters []workload.Cluster
		for len(clusters) == 0 {
			for _, cl := range workload.Clusters {
				if r.Intn(2) == 0 {
					clusters = append(clusters, cl)
				}
			}
		}
		for i := len(clusters) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			clusters[i], clusters[j] = clusters[j], clusters[i]
		}
		sls := make([]sim.Time, 1+r.Intn(5))
		for i := range sls {
			sls[i] = latencies[r.Intn(len(latencies))]
		}
		n := 1 + r.Intn(400)
		if trial == 0 {
			n = 400
		}
		seed := uint64(1 + r.Intn(1000))
		parallelism := 1 + 2*(trial%2)
		want, err := refFig12a(spec.TableOne(), clusters, sls, n, seed, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Fig12a(spec.TableOne(), clusters, sls, n, seed, parallelism)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("clusters %v, switch latencies %v, n=%d, seed %d, parallelism %d:\n got %+v\nwant %+v",
				clusters, sls, n, seed, parallelism, got, want)
		}
	}
}
