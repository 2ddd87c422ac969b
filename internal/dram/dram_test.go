package dram

import (
	"reflect"
	"testing"
	"testing/quick"

	"netdimm/internal/addrmap"
	"netdimm/internal/obs"
	"netdimm/internal/sim"
)

func TestTimingDerived(t *testing.T) {
	d4 := DDR4_2400()
	if d4.TRC() != d4.TRAS+d4.TRP {
		t.Fatal("TRC != TRAS+TRP")
	}
	if d4.BurstTime(1) != d4.TBL {
		t.Fatal("sub-cacheline burst should cost one burst")
	}
	if d4.BurstTime(64) != d4.TBL || d4.BurstTime(65) != 2*d4.TBL {
		t.Fatal("burst rounding wrong")
	}
	if d4.BurstTime(0) != d4.TBL {
		t.Fatal("zero-byte burst should still cost one burst slot")
	}
}

func TestStreamTime(t *testing.T) {
	d4 := DDR4_2400()
	// 12.8GB/s: 4KB should take ~320ns.
	got := d4.StreamTime(4096)
	if got < 300*sim.Nanosecond || got > 340*sim.Nanosecond {
		t.Fatalf("StreamTime(4KB) = %v, want ~320ns", got)
	}
	if d4.StreamTime(0) != 0 || d4.StreamTime(-5) != 0 {
		t.Fatal("non-positive stream should be free")
	}
	// DDR5 should be about twice as fast (paper Sec. 5.2).
	d5 := DDR5_4800()
	ratio := float64(d4.StreamTime(1<<20)) / float64(d5.StreamTime(1<<20))
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("DDR5/DDR4 bandwidth ratio = %v, want ~2", ratio)
	}
}

func TestAccessClassification(t *testing.T) {
	r := NewRank(DDR4_2400())
	addr := int64(0x1234 * addrmap.CachelineSize)

	_, kind := r.Access(0, addr, false, 64)
	if kind != RowMiss {
		t.Fatalf("first access = %v, want miss", kind)
	}
	_, kind = r.Access(r.bus.freeAt, addr+64, false, 64)
	if kind != RowHit {
		t.Fatalf("same-row access = %v, want hit", kind)
	}
	// Same bank, different row: conflict. Rows within the same bank and
	// sub-array are 128KB apart.
	_, kind = r.Access(r.bus.freeAt, addr+addrmap.SameSubarrayPageStride, false, 64)
	if kind != RowConflict {
		t.Fatalf("other-row access = %v, want conflict", kind)
	}
}

func TestAccessLatencies(t *testing.T) {
	tm := DDR4_2400()
	r := NewRank(tm)
	addr := int64(0)

	done, _ := r.Access(0, addr, false, 64)
	wantMiss := tm.TRCD + tm.TCL + tm.TBL
	if done != wantMiss {
		t.Fatalf("row miss latency = %v, want %v", done, wantMiss)
	}

	start := done
	done2, kind := r.Access(start, addr+64, false, 64)
	if kind != RowHit {
		t.Fatal("expected hit")
	}
	if done2 != start+tm.TCL+tm.TBL {
		t.Fatalf("row hit latency = %v, want %v", done2-start, tm.TCL+tm.TBL)
	}
}

// tRC invariant: two activations of the same bank are at least tRC apart.
func TestActivationSpacing(t *testing.T) {
	tm := DDR4_2400()
	r := NewRank(tm)
	a := int64(0)
	b := a + addrmap.SameSubarrayPageStride // same bank, different row

	r.Access(0, a, false, 64)
	firstAct := r.banks[addrmap.DecodeRank(a).Bank].lastAct
	r.Access(0, b, false, 64) // conflict: precharge + activate
	secondAct := r.banks[addrmap.DecodeRank(b).Bank].lastAct
	if secondAct-firstAct < tm.TRC() {
		t.Fatalf("activations %v apart, want >= tRC %v", secondAct-firstAct, tm.TRC())
	}
}

// Property: the data bus never carries two bursts at once — completion
// times of consecutive accesses are strictly increasing by at least the
// burst time.
func TestBusSerialisationProperty(t *testing.T) {
	tm := DDR4_2400()
	f := func(addrs []uint32) bool {
		r := NewRank(tm)
		var prevDone sim.Time = -1
		for _, a := range addrs {
			local := int64(a) &^ (addrmap.CachelineSize - 1)
			done, _ := r.Access(0, local, a%2 == 0, 64)
			if prevDone >= 0 && done < prevDone+tm.TBL {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWritesPipelineAtBusRate(t *testing.T) {
	tm := DDR4_2400()
	r := NewRank(tm)
	// Same-row writes (one packet's cachelines) issued back to back must
	// pipeline at tCCD/bus rate, not serialise on write recovery.
	var first, last sim.Time
	for i := int64(0); i < 24; i++ {
		done, _ := r.Access(0, i*64, true, 64)
		if i == 0 {
			first = done
		}
		last = done
	}
	span := last - first
	if span > 24*2*tm.TBL {
		t.Fatalf("24 writes span %v, want ~24*tBL = %v", span, 24*tm.TBL)
	}
}

func TestWouldHit(t *testing.T) {
	r := NewRank(DDR4_2400())
	if r.WouldHit(0) {
		t.Fatal("empty rank should not hit")
	}
	r.Access(0, 0, false, 64)
	if !r.WouldHit(64) {
		t.Fatal("same row should hit")
	}
	if r.WouldHit(addrmap.SameSubarrayPageStride) {
		t.Fatal("different row should not hit")
	}
}

func TestStatsAccounting(t *testing.T) {
	r := NewRank(DDR4_2400())
	r.Access(0, 0, false, 64)
	r.Access(0, 64, false, 64)
	r.Access(0, 0, true, 64)
	s := r.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d", s.Reads, s.Writes)
	}
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", s.Hits, s.Misses)
	}
	if s.Activations != 1 {
		t.Fatalf("activations = %d", s.Activations)
	}
}

func TestCloneModeSelection(t *testing.T) {
	base := int64(0)
	sameSub := base + addrmap.SameSubarrayPageStride
	otherBank := base + addrmap.PageSize*2 // different bank at page interleave
	otherRank := base + addrmap.RankBytes

	if m := CloneModeFor(base, sameSub); m != FPM {
		t.Fatalf("same sub-array mode = %v, want FPM", m)
	}
	if m := CloneModeFor(base, otherBank); m != PSM {
		t.Fatalf("same rank mode = %v, want PSM (bank %d vs %d)",
			m, addrmap.DecodeRank(base).Bank, addrmap.DecodeRank(otherBank).Bank)
	}
	if m := CloneModeFor(base, otherRank); m != GCM {
		t.Fatalf("cross-rank mode = %v, want GCM", m)
	}
}

// Paper Fig. 8 ordering: FPM is the fastest mode and GCM the slowest.
func TestCloneLatencyOrdering(t *testing.T) {
	tm := DDR4_2400()
	ranks := []*Rank{NewRank(tm), NewRank(tm)}
	e := NewCloneEngine(DefaultCloneTiming(), tm, ranks)

	src := int64(0)
	fpm := e.Latency(src, src+addrmap.SameSubarrayPageStride, 4096)
	psm := e.Latency(src, src+2*addrmap.PageSize, 4096)
	gcm := e.Latency(src, src+addrmap.RankBytes, 4096)
	if !(fpm < psm && psm < gcm) {
		t.Fatalf("latency ordering violated: FPM %v, PSM %v, GCM %v", fpm, psm, gcm)
	}
}

func TestCloneRowGranularity(t *testing.T) {
	tm := DDR4_2400()
	e := NewCloneEngine(DefaultCloneTiming(), tm, []*Rank{NewRank(tm)})
	src, dst := int64(0), addrmap.SameSubarrayPageStride
	// A 64B clone costs the same as a 4KB clone: RowClone works on rows.
	if e.Latency(src, dst, 64) != e.Latency(src, dst, 4096) {
		t.Fatal("sub-page clone should cost one page operation")
	}
	if e.Latency(src, dst, 4097) != 2*e.Latency(src, dst, 4096) {
		t.Fatal("4097B clone should cost two page operations")
	}
}

func TestCloneSideEffects(t *testing.T) {
	tm := DDR4_2400()
	rank := NewRank(tm)
	e := NewCloneEngine(DefaultCloneTiming(), tm, []*Rank{rank})
	src, dst := int64(0), addrmap.SameSubarrayPageStride

	done, mode := e.Clone(0, src, dst, 1514)
	if mode != FPM {
		t.Fatalf("mode = %v", mode)
	}
	if done != 90*sim.Nanosecond {
		t.Fatalf("FPM 1514B clone = %v, want 90ns", done)
	}
	// The destination row should now be open (activation side effect).
	if !rank.WouldHit(dst) {
		t.Fatal("clone should leave destination row open")
	}
	if rank.Stats().CloneFPM != 1 {
		t.Fatal("FPM clone not counted")
	}
}

func TestCloneGCMStreams(t *testing.T) {
	tm := DDR4_2400()
	ranks := []*Rank{NewRank(tm), NewRank(tm)}
	e := NewCloneEngine(DefaultCloneTiming(), tm, ranks)
	done, mode := e.Clone(0, 0, addrmap.RankBytes, 4096)
	if mode != GCM {
		t.Fatalf("mode = %v", mode)
	}
	want := DefaultCloneTiming().GCMFixed + tm.StreamTime(2*4096)
	if done != want {
		t.Fatalf("GCM clone = %v, want %v", done, want)
	}
}

func BenchmarkRankAccess(b *testing.B) {
	r := NewRank(DDR4_2400())
	var now sim.Time
	for i := 0; i < b.N; i++ {
		now, _ = r.Access(now, int64(i%1024)*64, i%4 == 0, 64)
	}
}

// TestAccessRunMatchesAccessRow holds AccessRun to the n AccessRow calls
// it stands for, from random bank and bus states: two ranks sharing a bus
// take the same random warm-up accesses (hits, misses and conflicts, with
// the other rank pushing the bus out), then one runs AccessRun and its
// twin the per-line calls. Runs draw the timing, the bank and row (often
// the open one), the direction, 1–128 lines of 1–192 bytes, the arrival
// gap from 0 to 2 TBL (past TBL the run takes the per-line calls) and
// sometimes an occupancy series. The last completion, the first kind,
// both ranks' banks and stats, the bus and the samples must match.
func TestAccessRunMatchesAccessRow(t *testing.T) {
	closed := 0
	for seed := uint64(1); seed <= 400; seed++ {
		r := sim.NewRand(seed)
		timing := []Timing{DDR4_2400(), DDR5_4800()}[r.Intn(2)]
		build := func() (*Rank, *Rank, *obs.Series) {
			bus := &Bus{}
			a, b := NewRank(timing), NewRank(timing)
			a.ShareBus(bus)
			b.ShareBus(bus)
			var occ *obs.Series
			if seed%4 == 0 {
				occ = obs.New(obs.Spec{Metrics: true}, "dram").Cell(0).Metrics().Series("occ")
				a.Observe(occ)
			}
			return a, b, occ
		}
		run, other, runOcc := build()
		ref, refOther, refOcc := build()
		// Warm-up: the same random accesses on both pairs.
		w := sim.NewRand(seed ^ 0xd7a)
		var now sim.Time
		for i, n := 0, w.Intn(40); i < n; i++ {
			now += sim.Time(w.Intn(60)) * sim.Nanosecond
			bank, row, write := w.Intn(4), w.Intn(3), w.Intn(2) == 0
			rk, rkRef := run, ref
			if w.Intn(3) == 0 {
				rk, rkRef = other, refOther
			}
			rk.AccessRow(now, bank, row, write, 64)
			rkRef.AccessRow(now, bank, row, write, 64)
		}
		bank, row := r.Intn(4), r.Intn(3)
		if r.Intn(2) == 0 && run.OpenRow(bank) >= 0 {
			row = run.OpenRow(bank)
		}
		write, n := r.Intn(2) == 0, 1+r.Intn(128)
		bytes := []int64{64, 64, 64, 1 + int64(r.Intn(192))}[r.Intn(4)]
		gap := sim.Time(r.Intn(int(2*timing.TBL) + 1))
		if r.Intn(2) == 0 {
			gap = timing.TBL
		}
		at := now + sim.Time(r.Intn(80))*sim.Nanosecond
		if runOcc == nil && gap <= timing.TBL && n > 1 {
			closed++
		}

		done, kind := run.AccessRun(at, gap, bank, row, write, bytes, n)
		var wantDone sim.Time
		var wantKind AccessKind
		for k := 0; k < n; k++ {
			d, kd := ref.AccessRow(at+sim.Time(k)*gap, bank, row, write, bytes)
			if k == 0 {
				wantKind = kd
			}
			wantDone = d
		}
		if done != wantDone || kind != wantKind {
			t.Fatalf("seed %d: AccessRun = (%v, %v), %d AccessRow calls = (%v, %v)", seed, done, kind, n, wantDone, wantKind)
		}
		if run.banks != ref.banks || run.stats != ref.stats || *run.bus != *ref.bus ||
			other.banks != refOther.banks || other.stats != refOther.stats {
			t.Fatalf("seed %d (n=%d gap=%v bytes=%d): rank state after AccessRun\n%+v %+v %+v\nper-line\n%+v %+v %+v",
				seed, n, gap, bytes, run.banks, run.stats, *run.bus, ref.banks, ref.stats, *ref.bus)
		}
		if !reflect.DeepEqual(runOcc.Samples(), refOcc.Samples()) {
			t.Fatalf("seed %d: occupancy samples differ", seed)
		}
	}
	if closed < 100 {
		t.Fatalf("only %d runs took the closed form", closed)
	}
}
