package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond != 1_000_000*Picosecond {
		t.Fatalf("Microsecond = %d ps", int64(Microsecond))
	}
	if got := (1500 * Nanosecond).Microseconds(); got != 1.5 {
		t.Fatalf("Microseconds() = %v, want 1.5", got)
	}
	if got := FromNanos(0.8335); got != 833*Picosecond+Picosecond/2+Picosecond/2 {
		// 0.8335ns rounds to 834ps (half away from zero via math.Round).
		if got != 834 {
			t.Fatalf("FromNanos(0.8335) = %d, want 834", int64(got))
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ps"},
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "0.003000s"},
		// Negative times render through the positive path with a leading
		// sign, not as raw picoseconds.
		{-1, "-1ps"},
		{-500, "-500ps"},
		{-1500, "-1.500ns"},
		{-1234567, "-1.235us"},
		{-2 * Microsecond, "-2.000us"},
		{-3 * Millisecond, "-0.003000s"},
		{-1500 * Millisecond, "-1.500000s"},
		{math.MinInt64 + 1, "-9223372.036855s"},
		// MinInt64 cannot be negated; it falls back to raw picoseconds.
		{math.MinInt64, "-9223372036854775808ps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30ps", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(42, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []Time
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(10, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after run", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{5, 15, 25} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(15)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want two events", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("Now = %v, want 15", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 3 {
		t.Fatalf("fired = %v, want three events", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want clock pinned to deadline 100", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++; e.Stop() })
	e.Schedule(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop should halt the loop)", count)
	}
	e.Run() // resumes
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

// Schedule saturates an instant past MaxTime at MaxTime ("never") instead
// of wrapping into the past, and a negative delay panics with a message
// naming the delay.
func TestScheduleDelayEdges(t *testing.T) {
	cases := []struct {
		now, delay Time
		want       Time   // instant the event fires at
		panic      string // substring of the panic message, if any
	}{
		{now: 0, delay: 0, want: 0},
		{now: 10, delay: 5, want: 15},
		{now: 0, delay: MaxTime, want: MaxTime},
		{now: 10, delay: MaxTime - 11, want: MaxTime - 1},
		{now: 10, delay: MaxTime - 10, want: MaxTime},
		{now: 10, delay: MaxTime, want: MaxTime},
		{now: MaxTime / 2, delay: MaxTime/2 + 2, want: MaxTime},
		{now: MaxTime, delay: 1, want: MaxTime},
		{now: 10, delay: -1, panic: "delay -1ps, before now 10ps"},
		{now: 0, delay: -MaxTime, panic: "delay -9223372.036855s, before now 0ps"},
		{now: 5, delay: math.MinInt64, panic: "delay -9223372036854775808ps, before now 5ps"},
	}
	for _, c := range cases {
		e := NewEngine()
		e.RunUntil(c.now)
		got := Time(-1)
		func() {
			defer func() {
				r := recover()
				if (r != nil) != (c.panic != "") || !strings.Contains(fmt.Sprint(r), c.panic) {
					t.Errorf("Schedule(%v) at %v: panic %v, want %q", c.delay, c.now, r, c.panic)
				}
			}()
			e.Schedule(c.delay, func() { got = e.Now() })
		}()
		e.Run()
		if c.panic == "" && got != c.want {
			t.Errorf("Schedule(%v) at %v fired at %v, want %v", c.delay, c.now, got, c.want)
		}
		if c.panic != "" && (got != -1 || e.Pending() != 0) {
			t.Errorf("Schedule(%v) at %v panicked but left an event behind", c.delay, c.now)
		}
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil event function did not panic")
		}
	}()
	NewEngine().Schedule(1, nil)
}

// Property: for any set of delays, events fire in non-decreasing time order
// and the engine's clock matches each event's scheduled instant.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Time = -1
		ok := true
		for _, d := range delays {
			when := Time(d)
			e.At(when, func() {
				if e.Now() < last {
					ok = false
				}
				if e.Now() != when {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok && e.Fired() == uint64(len(delays))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewRand(8)
	same := true
	a2 := NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Range(3, 5); v < 3 || v > 5 {
			t.Fatalf("Range out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(42)
	const n = 200000
	mean := 100 * Nanosecond
	var sum Time
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	got := float64(sum) / n
	if got < 0.95*float64(mean) || got > 1.05*float64(mean) {
		t.Fatalf("Exp mean = %.0fps, want ~%dps", got, int64(mean))
	}
	if r.Exp(0) != 0 || r.Exp(-5) != 0 {
		t.Fatal("Exp with non-positive mean should be 0")
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(3)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams should differ")
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run()
	}
}

func TestRunUntilEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("Now = %v, want pinned to deadline", e.Now())
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine()
	id := e.Schedule(1, func() {})
	e.Run()
	if e.Cancel(id) {
		t.Fatal("cancelling a fired event should return false")
	}
}

func TestCancelFromInsideEvent(t *testing.T) {
	e := NewEngine()
	var fired bool
	var victim EventID
	e.Schedule(1, func() {
		if !e.Cancel(victim) {
			t.Error("in-event cancel failed")
		}
	})
	victim = e.Schedule(2, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(5, func() {})
	e.Schedule(6, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Cancel(a)
	if e.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d", e.Pending())
	}
}

func TestFromDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want Time
	}{
		{0, 0},
		{time.Nanosecond, Nanosecond},
		{100 * time.Nanosecond, 100 * Nanosecond},
		{time.Microsecond, Microsecond},
		{time.Second, Second},
		{-5 * time.Nanosecond, -5 * Nanosecond},
		// Durations too large for the picosecond domain saturate instead
		// of overflowing into the past.
		{time.Duration(math.MaxInt64), MaxTime},
		{time.Duration(math.MinInt64), -MaxTime},
		{200 * 24 * time.Hour, MaxTime},
	}
	for _, c := range cases {
		if got := FromDuration(c.d); got != c.want {
			t.Errorf("FromDuration(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

// Duration truncates toward zero to whole nanoseconds, and inverts
// FromDuration exactly.
func TestTimeDuration(t *testing.T) {
	cases := []struct {
		t    Time
		want time.Duration
	}{
		{0, 0},
		{999, 0},
		{1500 * Picosecond, time.Nanosecond},
		{2538 * Nanosecond, 2538 * time.Nanosecond},
		{-1, 0},
		{-1500 * Picosecond, -time.Nanosecond},
	}
	for _, c := range cases {
		if got := c.t.Duration(); got != c.want {
			t.Errorf("Time(%d).Duration() = %v, want %v", int64(c.t), got, c.want)
		}
	}
	for _, d := range []time.Duration{0, time.Nanosecond, -7 * time.Nanosecond, time.Hour} {
		if got := FromDuration(d).Duration(); got != d {
			t.Errorf("FromDuration(%v).Duration() = %v", d, got)
		}
	}
}

// FromDuration must agree with the naive conversion everywhere the naive
// conversion is exact — the paper's experiments live in this range.
func TestFromDurationMatchesNaive(t *testing.T) {
	for _, d := range []time.Duration{
		time.Nanosecond, 25 * time.Nanosecond, 3 * time.Microsecond,
		7 * time.Millisecond, 42 * time.Second, time.Hour,
	} {
		if got, want := FromDuration(d), Time(d.Nanoseconds())*Nanosecond; got != want {
			t.Errorf("FromDuration(%v) = %v, naive = %v", d, got, want)
		}
	}
}
