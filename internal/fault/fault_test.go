package fault

import (
	"strings"
	"testing"

	"netdimm/internal/sim"
)

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{},
		{CorruptProb: 1, PortDropProb: 0, MaxRetries: 3},
		{MemTimeoutProb: 0.1, MemTimeoutNs: 500, MemMaxRetries: 2},
		{RetryBaseNs: 100, RetryCapNs: 100},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	bad := []Spec{
		{CorruptProb: 1.5},
		{PortDropProb: 2},
		{MemTimeoutProb: -1},
		{MaxRetries: -1},
		{MemMaxRetries: -2},
		{RetryBaseNs: -5},
		{MemTimeoutNs: -1},
		{RetryBaseNs: 200, RetryCapNs: 100},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
}

func TestSpecEnabled(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Error("zero Spec must be disabled")
	}
	if !(Spec{CorruptProb: 0.1}).NetEnabled() || !(Spec{CorruptProb: 0.1}).Enabled() {
		t.Error("CorruptProb must enable the network faults")
	}
	if !(Spec{MemTimeoutProb: 0.1}).MemEnabled() {
		t.Error("MemTimeoutProb must enable the memory faults")
	}
	if (Spec{MemTimeoutProb: 0.1}).NetEnabled() {
		t.Error("memory faults must not enable the network plane")
	}
}

func TestSpecString(t *testing.T) {
	if got := (Spec{}).String(); got != "disabled" {
		t.Errorf("zero Spec String() = %q, want disabled", got)
	}
	s := Spec{CorruptProb: 0.01, MaxRetries: 8, MemTimeoutProb: 0.05}.String()
	for _, want := range []string{"corrupt 0.01", "retries 8", "RDY loss 0.05"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestBackoffDelay(t *testing.T) {
	b := Backoff{Base: 100 * sim.Nanosecond, Cap: 400 * sim.Nanosecond}
	want := []sim.Time{
		100 * sim.Nanosecond, 200 * sim.Nanosecond,
		400 * sim.Nanosecond, 400 * sim.Nanosecond, 400 * sim.Nanosecond,
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	// Uncapped backoff keeps doubling.
	u := Backoff{Base: sim.Nanosecond}
	if got := u.Delay(10); got != 1024*sim.Nanosecond {
		t.Errorf("uncapped Delay(10) = %v, want 1.024µs", got)
	}
	// A zero base falls back to a positive delay so recovery always advances
	// simulated time.
	if got := (Backoff{}).Delay(0); got <= 0 {
		t.Errorf("zero-base Delay(0) = %v, want positive", got)
	}
}

// Property test over the full attempt range the ARQ can reach: the delay
// must stay positive, never decrease, respect the cap when one is set,
// and saturate (rather than wrap negative) without one. Before the
// saturating rewrite, an uncapped 1µs base overflowed int64 and went
// negative around attempt 43.
func TestBackoffDelayProperty(t *testing.T) {
	backoffs := []Backoff{
		{},                            // all defaults
		{Base: sim.Nanosecond},        // uncapped, minimal base
		{Base: 1000 * sim.Nanosecond}, // uncapped, the NetPolicy default base
		{Base: sim.Millisecond},       // uncapped, large base
		{Base: 100 * sim.Nanosecond, Cap: 400 * sim.Nanosecond},
		{Base: 1000 * sim.Nanosecond, Cap: 16_000 * sim.Nanosecond}, // the NetPolicy default
		{Base: sim.Second, Cap: sim.Second},                         // cap == base
	}
	for _, b := range backoffs {
		prev := sim.Time(0)
		for attempt := 0; attempt <= 64; attempt++ {
			d := b.Delay(attempt)
			if d <= 0 {
				t.Fatalf("%+v Delay(%d) = %v, want positive", b, attempt, d)
			}
			if d < prev {
				t.Fatalf("%+v Delay(%d) = %v below Delay(%d) = %v — not monotone", b, attempt, d, attempt-1, prev)
			}
			if b.Cap > 0 && d > b.Cap {
				t.Fatalf("%+v Delay(%d) = %v exceeds cap %v", b, attempt, d, b.Cap)
			}
			if d > sim.MaxTime {
				t.Fatalf("%+v Delay(%d) = %v exceeds sim.MaxTime", b, attempt, d)
			}
			prev = d
		}
		// Deep into saturation the delay must be pinned, not oscillating.
		if b.Cap == 0 {
			if got := b.Delay(64); got != sim.MaxTime {
				t.Errorf("%+v Delay(64) = %v, want saturation at sim.MaxTime", b, got)
			}
		} else if got := b.Delay(64); got != b.Cap {
			t.Errorf("%+v Delay(64) = %v, want cap %v", b, got, b.Cap)
		}
	}
}

func TestSpecValidateFailure(t *testing.T) {
	good := Spec{Failure: Schedule{
		Outages: []Outage{{Kind: OutageSpine, Index: 0, StartNs: 1000, EndNs: 2000}},
		Burst:   Burst{BadLossProb: 0.5, GoodToBad: 0.01, BadToGood: 0.1},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(valid Failure) = %v, want nil", err)
	}
	bad := []Spec{
		{Failure: Schedule{Outages: []Outage{{Kind: "bogus", EndNs: 1}}}},
		{Failure: Schedule{Outages: []Outage{{Kind: OutageSpine, StartNs: 5, EndNs: 5}}}},
		{Failure: Schedule{Burst: Burst{BadLossProb: 2}}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s.Failure)
		}
	}
}

func TestSpecStringFailure(t *testing.T) {
	s := Spec{Failure: Schedule{
		Outages: []Outage{{Kind: OutageSpine, Index: 1, StartNs: 1000, EndNs: 2000}},
	}}
	if !s.Enabled() {
		t.Error("a spec with a failure schedule must be enabled")
	}
	str := s.String()
	if !strings.Contains(str, "failures") || !strings.Contains(str, "spine 1") {
		t.Errorf("String() = %q, want failure schedule summary", str)
	}
	// The schedule must not leak into the summary when disabled.
	if str := (Spec{CorruptProb: 0.1}).String(); strings.Contains(str, "failures") {
		t.Errorf("String() = %q mentions failures without a schedule", str)
	}
}

func TestRetryPolicyNextDelay(t *testing.T) {
	p := RetryPolicy{Backoff: Backoff{Base: 10 * sim.Nanosecond}, MaxRetries: 2}
	if d, ok := p.NextDelay(0); !ok || d != 10*sim.Nanosecond {
		t.Errorf("NextDelay(0) = %v, %v", d, ok)
	}
	if d, ok := p.NextDelay(1); !ok || d != 20*sim.Nanosecond {
		t.Errorf("NextDelay(1) = %v, %v", d, ok)
	}
	if _, ok := p.NextDelay(2); ok {
		t.Error("NextDelay(2) must exhaust a budget of 2 retries")
	}
	// MaxRetries 0 means unlimited.
	unlimited := RetryPolicy{Backoff: Backoff{Base: sim.Nanosecond}}
	if _, ok := unlimited.NextDelay(1_000_000); !ok {
		t.Error("unlimited policy must never exhaust")
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Spec{}.NetPolicy()
	if p.Backoff.Base != defaultRetryBase || p.Backoff.Cap != defaultCapFactor*defaultRetryBase {
		t.Errorf("default NetPolicy = %+v", p)
	}
	if d := (Spec{}).MemDeadline(); d != defaultMemTimeout {
		t.Errorf("default MemDeadline = %v, want %v", d, defaultMemTimeout)
	}
	s := Spec{RetryBaseNs: 500, RetryCapNs: 2000, MemTimeoutNs: 700, MaxRetries: 3, MemMaxRetries: 5}
	if p := s.NetPolicy(); p.Backoff.Base != 500*sim.Nanosecond || p.Backoff.Cap != 2000*sim.Nanosecond || p.MaxRetries != 3 {
		t.Errorf("NetPolicy = %+v", p)
	}
	if p := s.MemPolicy(); p.MaxRetries != 5 {
		t.Errorf("MemPolicy.MaxRetries = %d, want 5", p.MaxRetries)
	}
	if d := s.MemDeadline(); d != 700*sim.Nanosecond {
		t.Errorf("MemDeadline = %v, want 700ns", d)
	}
}

// Two injectors with the same spec and seed must draw identical decision
// sequences — the foundation of the sweep's sequential/parallel identity.
func TestInjectorDeterminism(t *testing.T) {
	spec := Spec{CorruptProb: 0.1, PortDropProb: 0.05, MemTimeoutProb: 0.2}
	a := NewInjector(spec, 42)
	b := NewInjector(spec, 42)
	for i := 0; i < 2000; i++ {
		if a.DropFrame(0.3) != b.DropFrame(0.3) || a.CorruptFrame() != b.CorruptFrame() ||
			a.PortDrop() != b.PortDrop() || a.LoseRDY() != b.LoseRDY() {
			t.Fatalf("decision %d diverged between identical injectors", i)
		}
	}
	if a.Counters != b.Counters {
		t.Errorf("counters diverged: %+v vs %+v", a.Counters, b.Counters)
	}
	if a.Counters.FramesDropped == 0 || a.Counters.MemTimeouts == 0 {
		t.Errorf("expected some injected faults at these rates, got %+v", a.Counters)
	}
}

// Different cell seeds (and different spec seeds) must perturb the stream.
func TestInjectorSeedsDiffer(t *testing.T) {
	spec := Spec{}
	a, b := NewInjector(spec, 1), NewInjector(spec, 2)
	specB := spec
	specB.Seed = 9
	c := NewInjector(specB, 1)
	same := func(x, y *Injector) bool {
		for i := 0; i < 256; i++ {
			if x.DropFrame(0.5) != y.DropFrame(0.5) {
				return false
			}
		}
		return true
	}
	if same(a, b) {
		t.Error("cell seeds 1 and 2 drew identical traces")
	}
	if same(NewInjector(spec, 1), c) {
		t.Error("Spec.Seed did not perturb the stream")
	}
}

// A disabled fault class must not consume random values: the zero spec's
// injector leaves the stream untouched, which keeps fault-free runs
// byte-identical to the pre-fault simulator.
func TestZeroSpecDrawsNothing(t *testing.T) {
	j := NewInjector(Spec{}, 7)
	for i := 0; i < 100; i++ {
		if j.DropFrame(0) || j.CorruptFrame() || j.PortDrop() || j.LoseRDY() {
			t.Fatal("zero spec injected a fault")
		}
	}
	if j.Counters.Any() {
		t.Errorf("zero spec counted faults: %+v", j.Counters)
	}
	// The stream must be in its initial state: a probability-1 draw after
	// 400 disabled decisions matches the very first value of a fresh stream.
	fresh := NewInjector(Spec{}, 7)
	jj := NewInjector(Spec{}, 7)
	if fresh.DropFrame(1) != jj.DropFrame(1) {
		t.Fatal("fresh injectors diverged") // sanity
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		Delivered: "delivered", Dropped: "dropped", Corrupted: "corrupted", Outcome(9): "Outcome(9)",
	} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}
