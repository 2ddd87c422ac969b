package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"netdimm/internal/collective"
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
	rows, err := CollSweep(sp, []int{4, 8}, nil, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Archs)*3*2 {
		t.Fatalf("got %d rows, want %d", len(rows), len(Archs)*3*2)
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
		arch := Archs[rng.Intn(len(Archs))]
		shape, err := resolveColl(sp)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []string{"allreduce", "broadcast", "reducescatter"} {
			row, err := collCell(sp, arch, op, ranks, shape, uint64(trial), nil)
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

// TestCollCellMatchesClosureReference runs random small collective cells
// through collCell and through refCollCell, the closure transport it
// replaced, and requires identical rows, metrics, traces and stall errors.
// Configurations draw the op, 2–16 ranks, the payload, the chunk size, the
// architecture, the fabric shape and ECN; some run a 1-deep port buffer
// behind a 1Gbps wire, which drops frames and stalls the collective.
func TestCollCellMatchesClosureReference(t *testing.T) {
	r := sim.NewRand(0xc011)
	configs := 120
	if testing.Short() {
		configs = 40
	}
	ospec := obs.Spec{Trace: true, Metrics: true}
	var seen struct{ ok, marked, stalled int }
	for c := 0; c < configs; c++ {
		sp := spec.TableOne()
		sp.Collective.PayloadBytes = 8 * r.Range(1, 2000)
		sp.Collective.ChunkBytes = []int{128, 512, 1514}[r.Intn(3)]
		sp.Fabric.Leaves = r.Intn(3)
		if sp.Fabric.Leaves > 1 {
			sp.Fabric.Spines = r.Range(1, 2)
		}
		if r.Intn(2) == 0 {
			sp.Fabric.ECNThreshold = 1
		}
		if r.Intn(4) == 0 {
			sp.NetworkGbps = 1
			sp.Load.PortBuffer = 1
		}
		op := collective.Ops[r.Intn(len(collective.Ops))].String()
		ranks := r.Range(2, 16)
		arch := Archs[r.Intn(len(Archs))]
		seed := r.Uint64() >> 40
		shape, err := resolveColl(sp)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("config %d (%s/%s ranks=%d payload=%d chunk=%d leaves=%d spines=%d ecn=%d buf=%d gbps=%d)",
			c, arch, op, ranks, shape.payload, shape.chunk, sp.Fabric.Leaves, sp.Fabric.Spines,
			sp.Fabric.ECNThreshold, shape.portBuffer, sp.NetworkGbps)
		label := fmt.Sprintf("collsweep/%s/op=%s/ranks=%d", arch, op, ranks)
		gotO, wantO := obs.New(ospec, label), obs.New(ospec, label)
		got, gotErr := collCell(sp, arch, op, ranks, shape, seed, gotO.Cell(0))
		want, wantErr := refCollCell(sp, arch, op, ranks, shape, seed, wantO.Cell(0))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: err = %v, reference err = %v", name, gotErr, wantErr)
		}
		if gotErr != nil {
			if strings.Contains(gotErr.Error(), "stalled") {
				seen.stalled++
			}
			continue
		}
		seen.ok++
		seen.marked += got.Marked
		if got != want {
			t.Fatalf("%s: row differs from the reference\n got %+v\nwant %+v", name, got, want)
		}
		if g, w := gotO.MetricsCSV(), wantO.MetricsCSV(); g != w {
			t.Fatalf("%s: metrics differ from the reference\n got %s\nwant %s", name, g, w)
		}
		var gt, wt bytes.Buffer
		if err := gotO.WriteTrace(&gt); err != nil {
			t.Fatal(err)
		}
		if err := wantO.WriteTrace(&wt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gt.Bytes(), wt.Bytes()) {
			t.Fatalf("%s: trace differs from the reference", name)
		}
	}
	t.Logf("exercised: %+v", seen)
	if seen.ok == 0 || seen.marked == 0 || seen.stalled == 0 {
		t.Errorf("random configurations left a path unexercised: %+v", seen)
	}
}

// TestCollCellAllocs holds the collective cell's host memory to its data:
// a 16-rank 256KiB allreduce moves ~5 000 more frames than its 64B twin,
// which has the same messages and one frame each, yet may cost at most
// 0.25 more mallocs per extra frame and at most 1.25 x ranks x payload
// more bytes — the rank vectors, the verification reference and the
// payload buffers in flight. The cells run dNIC endpoints, whose drivers
// allocate nothing per frame, so the budget measures the cell and the
// executor; a NetDIMM device's own warm-up (its nMC entry pool grows to
// one MTU frame's cache lines) scales with the frame size, not the count.
func TestCollCellAllocs(t *testing.T) {
	const ranks, payload = 16, 256 << 10
	cost := func(bytes int) (mallocs, allocated uint64, frames int) {
		sp := spec.TableOne()
		sp.Collective.PayloadBytes = bytes
		shape, err := resolveColl(sp)
		if err != nil {
			t.Fatal(err)
		}
		run := func() CollRow {
			row, err := collCell(sp, "dNIC", "allreduce", ranks, shape, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			return row
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		row := run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, row.Frames
	}
	bigM, bigB, bigF := cost(payload)
	twinM, twinB, twinF := cost(64)
	extra := bigF - twinF
	perFrame := (float64(bigM) - float64(twinM)) / float64(extra)
	t.Logf("256KiB: %d frames, %d mallocs, %d B; 64B: %d frames, %d mallocs, %d B; %.3f mallocs per extra frame",
		bigF, bigM, bigB, twinF, twinM, twinB, perFrame)
	if extra < 4000 {
		t.Fatalf("only %d extra frames; the cells no longer differ in frame count", extra)
	}
	if perFrame > 0.25 {
		t.Errorf("%.3f mallocs per extra frame, want <= 0.25", perFrame)
	}
	if limit := 1.25 * ranks * payload; float64(bigB)-float64(twinB) > limit {
		t.Errorf("256KiB cell allocates %d B more than its 64B twin, want <= %.0f", int64(bigB)-int64(twinB), limit)
	}
}

// TestDrawPayloadsMatchesPerRank holds the four-stream payload draw to
// a loop over single ranks, element by element: every rank's vector, the
// sum and rank 0's copy, at rank counts that fill the four-rank groups
// and that leave one to three ranks over. The reference vectors start
// out dirty, as pooled ones do.
func TestDrawPayloadsMatchesPerRank(t *testing.T) {
	const seed, elems = 41, 1001
	for _, ranks := range []int{2, 5, 16, 17, 64} {
		data, want := make([][]int64, ranks), make([][]int64, ranks)
		wantSum := make([]int64, elems)
		for r := range data {
			data[r] = make([]int64, elems)
			want[r] = make([]int64, elems)
			rng := sim.NewRand(seed ^ 0xc0_11ec_71fe + uint64(r)*0x9e3779b97f4a7c15)
			for i := range want[r] {
				want[r][i] = rng.Int63n(1 << 40)
				wantSum[i] += want[r][i]
			}
		}
		sum, root := make([]int64, elems), make([]int64, elems)
		for i := range sum {
			sum[i], root[i] = -1, -1
		}
		drawPayloads(seed, data, sum, root)
		for r := range data {
			for i, x := range data[r] {
				if x != want[r][i] {
					t.Fatalf("%d ranks: rank %d element %d = %d, want %d", ranks, r, i, x, want[r][i])
				}
			}
		}
		for i := range sum {
			if sum[i] != wantSum[i] || root[i] != want[0][i] {
				t.Fatalf("%d ranks: element %d sum %d root %d, want %d and %d", ranks, i, sum[i], root[i], wantSum[i], want[0][i])
			}
		}
	}
}

// TestCollSweepParallelDeterminism pins the cell-parallelism contract.
func TestCollSweepParallelDeterminism(t *testing.T) {
	sp := collTestSpec()
	seq, err := CollSweep(sp, []int{4, 8}, []string{"allreduce"}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CollSweep(sp, []int{4, 8}, []string{"allreduce"}, 5, 8)
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
	_, err := CollSweep(sp, []int{4}, []string{"broadcast"}, 1, 2)
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
	rows, err := CollSweep(sp, nil, nil, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Archs) {
		t.Fatalf("pinned spec gave %d rows, want %d", len(rows), len(Archs))
	}
	for _, r := range rows {
		if r.Op != "broadcast" || r.Ranks != 4 {
			t.Fatalf("pinned spec ran cell %s/%d", r.Op, r.Ranks)
		}
	}
}

func TestCollSweepRejectsBadAxes(t *testing.T) {
	sp := collTestSpec()
	if _, err := CollSweep(sp, []int{1}, nil, 0, 1); err == nil {
		t.Fatal("rank count 1 accepted")
	}
	if _, err := CollSweep(sp, nil, []string{"alltoall"}, 0, 1); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestCollSweepObserved(t *testing.T) {
	sp := collTestSpec()
	rows, o, err := CollSweepObserved(sp, []int{4}, []string{"allreduce"},
		3, 2, obs.Spec{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if o == nil {
		t.Fatal("enabled ospec returned nil observer")
	}
	if len(rows) != len(Archs) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, arch := range Archs {
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
