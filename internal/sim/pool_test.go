package sim

import (
	"strconv"
	"testing"
)

// Edge cases of the slot-arena/free-list event storage: generation-checked
// IDs must keep stale handles away from reused slots, cancellation must
// not disturb RunUntil, and Pending must track the live count exactly.

func nop() {}

func TestRunUntilAllCancelled(t *testing.T) {
	e := NewEngine()
	var ids []EventID
	for _, d := range []Time{10, 20, 30} {
		ids = append(ids, e.Schedule(d, func() { t.Error("cancelled event fired") }))
	}
	for _, id := range ids {
		if !e.Cancel(id) {
			t.Fatal("cancel failed")
		}
	}
	e.RunUntil(25)
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want pinned to deadline 25", e.Now())
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
	// A second pass past every cancelled instant finds nothing to fire.
	e.RunUntil(100)
	if e.Now() != 100 || e.Fired() != 0 {
		t.Fatalf("Now = %v Fired = %d after second pass", e.Now(), e.Fired())
	}
}

func TestRunAllCancelledDoesNotAdvanceClock(t *testing.T) {
	e := NewEngine()
	id := e.Schedule(50, nop)
	e.Cancel(id)
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("Now = %v; cancelled events must not advance the clock", e.Now())
	}
}

// A slot reused after a cancel must not be cancellable through the stale ID
// (the "resurrection" hazard of pooled event structs).
func TestPoolReuseAfterCancel(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(10, func() { t.Error("cancelled event fired") })
	if !e.Cancel(stale) {
		t.Fatal("cancel failed")
	}
	e.Run() // the cancelled slot is already back on the free list

	fired := 0
	for i := 0; i < 4; i++ { // at least one of these reuses the slot
		e.Schedule(5, func() { fired++ })
	}
	if e.Cancel(stale) {
		t.Fatal("stale ID cancelled a reused slot's event")
	}
	e.Run()
	if fired != 4 {
		t.Fatalf("fired = %d, want 4", fired)
	}
}

// Same hazard via the fired path: an ID whose event already ran must not
// touch the slot's next occupant.
func TestPoolReuseAfterFire(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(1, nop)
	e.Run()

	fired := false
	e.Schedule(1, func() { fired = true }) // reuses the released slot
	if e.Cancel(stale) {
		t.Fatal("stale ID of a fired event cancelled its slot's new occupant")
	}
	e.Run()
	if !fired {
		t.Fatal("reused slot's event did not fire")
	}
}

// Cancelling the in-flight event from inside its own callback is a no-op:
// by then it has fired and its slot may already host a newcomer.
func TestCancelSelfInsideCallback(t *testing.T) {
	e := NewEngine()
	var id EventID
	rescheduled := false
	id = e.Schedule(1, func() {
		next := e.Schedule(1, func() { rescheduled = true }) // may land in the same slot
		if e.Cancel(id) {
			t.Error("self-cancel of the firing event returned true")
		}
		_ = next
	})
	e.Run()
	if !rescheduled {
		t.Fatal("nested event lost")
	}
}

func TestPendingAccuracyUnderChurn(t *testing.T) {
	e := NewEngine()
	var ids []EventID
	for i := 0; i < 100; i++ {
		ids = append(ids, e.Schedule(Time(i+1), nop))
	}
	if e.Pending() != 100 {
		t.Fatalf("Pending = %d, want 100", e.Pending())
	}
	for i := 0; i < 100; i += 2 {
		e.Cancel(ids[i])
	}
	if e.Pending() != 50 {
		t.Fatalf("Pending after cancels = %d, want 50", e.Pending())
	}
	e.RunUntil(50) // fires the odd-delay half up to 49... (events 1..50, odd ones live)
	if got := e.Pending(); got != 25 {
		t.Fatalf("Pending mid-run = %d, want 25", got)
	}
	e.Run()
	if e.Pending() != 0 || e.Fired() != 50 {
		t.Fatalf("Pending = %d Fired = %d after drain", e.Pending(), e.Fired())
	}
}

func TestCancelGarbageID(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, nop)
	for _, id := range []EventID{0, 1, EventID(1) << 32, EventID(1<<63) | 7} {
		if id == makeID(0, 0) {
			continue // the one real ID
		}
		if e.Cancel(id) {
			t.Fatalf("garbage ID %#x cancelled something", uint64(id))
		}
	}
}

// The hot path must not allocate once the arena is warm: scheduling and
// firing an event reuses a pooled slot, and no map or per-event heap
// pointer is involved.
func TestEngineScheduleAllocs(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ { // warm the arena and free list
		e.Schedule(Time(i), nop)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(10, nop)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("allocs per schedule+fire = %v, want 0", avg)
	}
}

func TestEngineCancelAllocs(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), nop)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		id := e.Schedule(10, nop)
		e.Cancel(id)
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("allocs per schedule+cancel = %v, want 0", avg)
	}
}

// Every NetDIMM driver owns an engine and the rack benchmark builds 512 of
// them, so a fresh engine's set-up cost multiplies by the device count.
// NewEngine plus its first 64 events may allocate no more often than the
// binary-heap engine did (19 allocations: the engine, and the growth of
// the arena, the free list and the heap slice).
func TestNewEngineAllocs(t *testing.T) {
	avg := testing.AllocsPerRun(100, func() {
		e := NewEngine()
		for i := 0; i < 64; i++ {
			e.Schedule(Time(i%7), nop)
		}
		e.Run()
	})
	if avg > 19 {
		t.Fatalf("NewEngine + 64 events allocates %v times, want at most 19", avg)
	}
}

// BenchmarkEngineSchedule measures the schedule→fire round trip on a warm
// arena. Run with -benchmem: the target is 0 allocs/op.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i%97), nop)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%97), nop)
		e.Run()
	}
}

// BenchmarkEngineScheduleDepth measures scheduling against a 1k-deep
// far-future backlog, about twice the deepest queue the benchmarks
// measure (the rack workload's fabric cell engine peaks at 521 pending
// events; the per-device NetDIMM engines stay a few events deep).
func BenchmarkEngineScheduleDepth(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 1024; i++ {
		e.Schedule(MaxTime/2+Time(i), nop) // backlog that never fires
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.Schedule(Time(i%97), nop)
		e.Cancel(id)
		e.RunUntil(e.Now()) // fire nothing; keep clock still
	}
}

// holdModel builds the hold model at a fixed queue depth: every fired
// event reschedules itself 1-1000ps ahead, so each fired event pays one
// pop from a queue of the given depth. It fires 4×depth events to warm
// the engine and returns a function that fires n more.
func holdModel(depth int) (fire func(n int)) {
	e := NewEngine()
	x := uint64(0x9e3779b97f4a7c15)
	left := 0
	var hold func()
	hold = func() {
		x = x*6364136223846793005 + 1442695040888963407
		e.Schedule(Time(1+(x>>33)%1000), hold)
		if left--; left == 0 {
			e.Stop()
		}
	}
	for i := 0; i < depth; i++ {
		e.Schedule(Time(1+i%1000), hold)
	}
	fire = func(n int) {
		left = n
		e.Run()
	}
	fire(4 * depth)
	return fire
}

// BenchmarkEngineHold times one hold-model event, the cost
// BenchmarkEngineSchedule's drained queue never sees. Run with -benchmem:
// the target is 0 allocs/op.
func BenchmarkEngineHold(b *testing.B) {
	for _, depth := range []int{16, 512, 4096} {
		b.Run(strconv.Itoa(depth), func(b *testing.B) {
			fire := holdModel(depth)
			b.ReportAllocs()
			b.ResetTimer()
			fire(b.N)
		})
	}
}

// TestEngineHoldAllocs holds BenchmarkEngineHold/512 to zero allocations:
// at the rack cell engine's queue depth, popping and rescheduling reuses
// pooled slots.
func TestEngineHoldAllocs(t *testing.T) {
	fire := holdModel(512)
	if avg := testing.AllocsPerRun(100, func() { fire(1000) }); avg != 0 {
		t.Fatalf("allocs per 1000 hold events at depth 512 = %v, want 0", avg)
	}
}

// BenchmarkEngineCancel measures the schedule→cancel→run cycle. Run with
// -benchmem: the target is 0 allocs/op.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i%97), nop)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.Schedule(10, nop)
		e.Cancel(id)
		e.Run()
	}
}
