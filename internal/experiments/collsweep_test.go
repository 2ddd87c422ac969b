package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"netdimm/internal/obs"
	"netdimm/internal/sim"
	"netdimm/internal/spec"
)

// collTestSpec returns a spec sized for fast collective cells.
func collTestSpec() spec.Spec {
	sp := spec.TableOne()
	sp.Collective.PayloadBytes = 8 << 10
	return sp
}

func TestCollSweepRows(t *testing.T) {
	sp := collTestSpec()
	rows, err := CollSweep(sp, []int{4, 8}, nil, CollSweepConfig{Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(LoadSweepArchs)*3*2 {
		t.Fatalf("got %d rows, want %d", len(rows), len(LoadSweepArchs)*3*2)
	}
	for _, r := range rows {
		if r.Completion <= 0 {
			t.Errorf("%s/%s/%d: completion %v not positive", r.Arch, r.Op, r.Ranks, r.Completion)
		}
		if r.Dropped != 0 {
			t.Errorf("%s/%s/%d: %d drops in an uncongested cell", r.Arch, r.Op, r.Ranks, r.Dropped)
		}
		if r.Frames < r.Delivered || r.Delivered == 0 {
			t.Errorf("%s/%s/%d: frames=%d delivered=%d", r.Arch, r.Op, r.Ranks, r.Frames, r.Delivered)
		}
		if r.LinkUtilization < 0 || r.LinkUtilization > 1 {
			t.Errorf("%s/%s/%d: link utilisation %g out of range", r.Arch, r.Op, r.Ranks, r.LinkUtilization)
		}
	}
	// The ring's message count is exact: 2(N-1) steps x N ranks for
	// allreduce, (N-1) x N for reduce-scatter; the tree delivers N-1.
	for _, r := range rows {
		var want int
		switch r.Op {
		case "allreduce":
			want = 2 * (r.Ranks - 1) * r.Ranks
		case "reducescatter":
			want = (r.Ranks - 1) * r.Ranks
		case "broadcast":
			want = r.Ranks - 1
		}
		if r.Delivered != want {
			t.Errorf("%s/%s/%d: delivered %d messages, want %d", r.Arch, r.Op, r.Ranks, r.Delivered, want)
		}
	}
}

// TestCollCellMatchesReference is the fabric-level property test: for
// random rank counts, payload sizes and chunkings, every operation
// executed over the simulated fabric must match the sequential reference —
// collCell runs collective.Verify (element-wise sum / root-copy check)
// before returning a row, so an error here is a data-plane divergence.
func TestCollCellMatchesReference(t *testing.T) {
	rng := sim.NewRand(19)
	for trial := 0; trial < 6; trial++ {
		sp := spec.TableOne()
		sp.Collective.PayloadBytes = 8 * (1 + int(rng.Intn(2000)))
		sp.Collective.ChunkBytes = []int{128, 512, 1514}[rng.Intn(3)]
		ranks := 2 + int(rng.Intn(8))
		arch := LoadSweepArchs[rng.Intn(len(LoadSweepArchs))]
		shape, err := resolveColl(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []string{"allreduce", "broadcast", "reducescatter"} {
			row, err := collCell(sp, arch, op, ranks, shape, CollSweepConfig{EventBudget: 8_000_000, Seed: uint64(trial)}, nil)
			if err != nil {
				t.Fatalf("trial %d %s/%s/%d (payload %d chunk %d): %v",
					trial, arch, op, ranks, shape.payload, shape.chunk, err)
			}
			if row.Completion <= 0 {
				t.Fatalf("trial %d %s/%s/%d: zero completion", trial, arch, op, ranks)
			}
		}
	}
}

// TestCollSweepParallelDeterminism pins the cell-parallelism contract.
func TestCollSweepParallelDeterminism(t *testing.T) {
	sp := collTestSpec()
	seq, err := CollSweep(sp, []int{4, 8}, []string{"allreduce"}, CollSweepConfig{Seed: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CollSweep(sp, []int{4, 8}, []string{"allreduce"}, CollSweepConfig{Seed: 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel rows diverge from sequential")
	}
}

// TestCollSweepStallDiagnostic forces tail drops (a 1-deep port buffer
// against a 1Gbps wire that serializes far slower than any TX path) and
// checks the cell fails with the actionable stall diagnostic instead of
// reporting a bogus completion time.
func TestCollSweepStallDiagnostic(t *testing.T) {
	sp := collTestSpec()
	sp.NetworkGbps = 1
	sp.Load.PortBuffer = 1
	sp.Collective.PayloadBytes = 64 << 10
	_, err := CollSweep(sp, []int{4}, []string{"broadcast"}, CollSweepConfig{Seed: 1}, 2)
	if err == nil {
		t.Fatal("1-deep port buffer produced no stall")
	}
	if !strings.Contains(err.Error(), "stalled") || !strings.Contains(err.Error(), "PortBuffer") {
		t.Fatalf("stall diagnostic missing from %q", err)
	}
}

func TestCollSweepPinnedSpec(t *testing.T) {
	sp := collTestSpec()
	sp.Collective.Op = "broadcast"
	sp.Collective.Ranks = 4
	rows, err := CollSweep(sp, nil, nil, CollSweepConfig{Seed: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(LoadSweepArchs) {
		t.Fatalf("pinned spec gave %d rows, want %d", len(rows), len(LoadSweepArchs))
	}
	for _, r := range rows {
		if r.Op != "broadcast" || r.Ranks != 4 {
			t.Fatalf("pinned spec ran cell %s/%d", r.Op, r.Ranks)
		}
	}
}

func TestCollSweepRejectsBadAxes(t *testing.T) {
	sp := collTestSpec()
	if _, err := CollSweep(sp, []int{1}, nil, CollSweepConfig{}, 1); err == nil {
		t.Fatal("rank count 1 accepted")
	}
	if _, err := CollSweep(sp, nil, []string{"alltoall"}, CollSweepConfig{}, 1); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestCollSweepObserved(t *testing.T) {
	sp := collTestSpec()
	rows, o, err := CollSweepObserved(sp, []int{4}, []string{"allreduce"},
		CollSweepConfig{Seed: 3}, 2, obs.Spec{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if o == nil {
		t.Fatal("enabled ospec returned nil observer")
	}
	if len(rows) != len(LoadSweepArchs) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, arch := range LoadSweepArchs {
		c := o.Cell(i)
		wantLabel := fmt.Sprintf("collsweep/%s/op=allreduce/ranks=4", arch)
		if c.Label() != wantLabel {
			t.Fatalf("cell %d label %q, want %q", i, c.Label(), wantLabel)
		}
		if got := len(c.Tracks()); got != 4 {
			t.Fatalf("cell %d has %d tracks, want one per rank", i, got)
		}
		for _, track := range c.Tracks() {
			if len(track.Spans()) == 0 {
				t.Fatalf("cell %d track %v has no step spans", i, track)
			}
		}
	}
}
