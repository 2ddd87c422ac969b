// Package fault is the deterministic fault-injection plane of the
// simulator. The paper's experiments assume a perfect world — links never
// drop or corrupt frames and NVDIMM-P devices always raise RDY — which is
// the best case the latency claims are made in. This package supplies the
// other cases: a seed-driven Spec describes per-traversal frame
// corruption, switch-port tail-drop injection and NVDIMM-P RDY loss; an
// Injector draws every fault decision from a sim.Rand stream so sequential
// and parallel experiment fan-out see identical fault traces; and Backoff /
// RetryPolicy are the shared recovery primitives (capped exponential
// backoff, bounded retries) used by the NIC retransmit engine and the
// NVDIMM-P timeout path.
//
// The zero Spec injects nothing: every component consults the injector
// only when the relevant probability is positive, so default-configuration
// runs consume no random values and stay byte-identical to the pre-fault
// simulator.
package fault

import (
	"errors"
	"fmt"

	"netdimm/internal/sim"
	"netdimm/internal/stats"
)

// Spec configures fault injection for one run. The zero value disables
// every fault. Probabilities are per decision point: CorruptProb per link
// traversal, PortDropProb per switch-port enqueue, MemTimeoutProb per
// NVDIMM-P transaction. Frame loss on the wire is not a Spec field: the
// fault sweep sweeps it and passes each rate to Injector.DropFrame.
// Durations are plain nanosecond integers so a scenario JSON file can
// address every field directly.
type Spec struct {
	// CorruptProb is the probability a frame arrives with a bit error; the
	// receiving NIC detects it by FCS check and discards the frame, so a
	// corrupted frame costs its full wire time before the sender times out.
	CorruptProb float64
	// PortDropProb is the probability an event-driven switch egress port
	// tail-drops a frame even with buffer space free (injected congestion).
	PortDropProb float64
	// MaxRetries bounds retransmit attempts per frame; 0 means unlimited
	// (a pathological all-loss configuration then relies on the engine
	// watchdog to terminate).
	MaxRetries int
	// RetryBaseNs is the first retransmit timeout/backoff in nanoseconds;
	// 0 selects the default (1000ns).
	RetryBaseNs int
	// RetryCapNs caps the exponential backoff; 0 selects 16x the base.
	RetryCapNs int
	// MemTimeoutProb is the probability an NVDIMM-P transaction's RDY
	// signal is lost (the device stages data but the host never sees it).
	MemTimeoutProb float64
	// MemTimeoutNs is how long the memory controller waits for RDY before
	// aborting the transaction; 0 selects the default (2000ns).
	MemTimeoutNs int
	// MemMaxRetries bounds memory-transaction retries; 0 means unlimited.
	MemMaxRetries int
	// Failure schedules correlated failures — timed link/switch outage
	// windows and a Gilbert–Elliott burst-loss process — on top of the
	// memoryless per-frame probabilities above. The zero value schedules
	// nothing.
	Failure Schedule
	// Seed perturbs every injector stream derived from this spec, so two
	// scenarios with identical probabilities can still draw different
	// fault traces.
	Seed uint64
}

// Enabled reports whether any fault is injected or scheduled.
func (s Spec) Enabled() bool { return s.NetEnabled() || s.MemEnabled() || s.Failure.Enabled() }

// NetEnabled reports whether any network fault is injected.
func (s Spec) NetEnabled() bool {
	return s.CorruptProb > 0 || s.PortDropProb > 0
}

// MemEnabled reports whether NVDIMM-P RDY loss is injected.
func (s Spec) MemEnabled() bool { return s.MemTimeoutProb > 0 }

// Validate checks the block for internal consistency and returns an
// actionable error for the first violation found.
func (s Spec) Validate() error {
	probs := []struct {
		name string
		p    float64
	}{
		{"CorruptProb", s.CorruptProb},
		{"PortDropProb", s.PortDropProb},
		{"MemTimeoutProb", s.MemTimeoutProb},
	}
	for _, pr := range probs {
		if pr.p < 0 || pr.p > 1 {
			return fmt.Errorf("fault: %s must be in [0,1], got %g", pr.name, pr.p)
		}
	}
	switch {
	case s.MaxRetries < 0:
		return fmt.Errorf("fault: MaxRetries must not be negative, got %d", s.MaxRetries)
	case s.MemMaxRetries < 0:
		return fmt.Errorf("fault: MemMaxRetries must not be negative, got %d", s.MemMaxRetries)
	case s.RetryBaseNs < 0 || s.RetryCapNs < 0 || s.MemTimeoutNs < 0:
		return fmt.Errorf("fault: RetryBaseNs/RetryCapNs/MemTimeoutNs must not be negative, got %d/%d/%d",
			s.RetryBaseNs, s.RetryCapNs, s.MemTimeoutNs)
	case s.RetryCapNs > 0 && s.RetryCapNs < s.RetryBaseNs:
		return fmt.Errorf("fault: RetryCapNs %d below RetryBaseNs %d", s.RetryCapNs, s.RetryBaseNs)
	}
	return s.Failure.Validate()
}

// String summarises the enabled faults compactly.
func (s Spec) String() string {
	if !s.Enabled() {
		return "disabled"
	}
	out := ""
	add := func(format string, args ...any) {
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf(format, args...)
	}
	if s.CorruptProb > 0 {
		add("corrupt %.2g", s.CorruptProb)
	}
	if s.PortDropProb > 0 {
		add("port-drop %.2g", s.PortDropProb)
	}
	if s.NetEnabled() {
		p := s.NetPolicy()
		if p.MaxRetries > 0 {
			add("retries %d (base %v)", p.MaxRetries, p.Backoff.Base)
		} else {
			add("retries unlimited (base %v)", p.Backoff.Base)
		}
	}
	if s.MemEnabled() {
		add("RDY loss %.2g (timeout %v)", s.MemTimeoutProb, s.MemDeadline())
	}
	if s.Failure.Enabled() {
		add("failures [%s]", s.Failure)
	}
	return out
}

// Default recovery constants resolved when the spec leaves a knob at zero.
const (
	defaultRetryBase  = 1000 * sim.Nanosecond
	defaultCapFactor  = 16
	defaultMemTimeout = 2000 * sim.Nanosecond
)

// NetPolicy resolves the network retransmit policy: capped exponential
// backoff from RetryBaseNs, bounded by MaxRetries.
func (s Spec) NetPolicy() RetryPolicy {
	base := sim.Time(s.RetryBaseNs) * sim.Nanosecond
	if base <= 0 {
		base = defaultRetryBase
	}
	cap := sim.Time(s.RetryCapNs) * sim.Nanosecond
	if cap <= 0 {
		cap = defaultCapFactor * base
	}
	return RetryPolicy{Backoff: Backoff{Base: base, Cap: cap}, MaxRetries: s.MaxRetries}
}

// MemPolicy resolves the memory-transaction retry policy. The backoff
// reuses the network knobs: a stalled MC re-issue is paced the same way a
// NIC retransmit is.
func (s Spec) MemPolicy() RetryPolicy {
	p := s.NetPolicy()
	p.MaxRetries = s.MemMaxRetries
	return p
}

// MemDeadline resolves the RDY timeout.
func (s Spec) MemDeadline() sim.Time {
	if s.MemTimeoutNs > 0 {
		return sim.Time(s.MemTimeoutNs) * sim.Nanosecond
	}
	return defaultMemTimeout
}

// Backoff computes capped exponential delays: Delay(0) == Base, doubling
// per attempt, never exceeding Cap.
type Backoff struct {
	Base sim.Time
	Cap  sim.Time
}

// Delay returns the backoff before retry number attempt (0-based). The
// doubling saturates instead of wrapping: a capped policy never exceeds
// Cap, and an uncapped one pins at sim.MaxTime once doubling would
// overflow (attempt ~62 at a 1ns base) rather than going negative.
func (b Backoff) Delay(attempt int) sim.Time {
	d := b.Base
	if d <= 0 {
		d = sim.Nanosecond
	}
	for i := 0; i < attempt; i++ {
		if b.Cap > 0 && d >= b.Cap {
			return b.Cap
		}
		if d > sim.MaxTime/2 {
			if b.Cap > 0 {
				return b.Cap
			}
			return sim.MaxTime
		}
		d *= 2
	}
	if b.Cap > 0 && d > b.Cap {
		return b.Cap
	}
	return d
}

// RetryPolicy bounds a recovery loop: how long to wait before each retry
// and how many retries are allowed.
type RetryPolicy struct {
	Backoff Backoff
	// MaxRetries is the retry budget after the first attempt; 0 means
	// unlimited.
	MaxRetries int
}

// NextDelay returns the delay before retrying after failed attempt number
// `attempt` (0-based), and false when the retry budget is exhausted.
func (p RetryPolicy) NextDelay(attempt int) (sim.Time, bool) {
	if p.MaxRetries > 0 && attempt >= p.MaxRetries {
		return 0, false
	}
	return p.Backoff.Delay(attempt), true
}

// ErrExhausted reports a recovery loop that hit its retry cap.
var ErrExhausted = errors.New("retry cap exhausted")

// Outcome classifies one transmission attempt over a lossy path.
type Outcome int

const (
	// Delivered: the frame arrived intact.
	Delivered Outcome = iota
	// Dropped: the frame vanished (link loss or injected tail drop); the
	// sender learns of it only by retransmit timeout.
	Dropped
	// Corrupted: the frame arrived but failed the receiver's FCS check
	// and was discarded, costing its full wire time first.
	Corrupted
)

func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Corrupted:
		return "corrupted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Injector draws fault decisions for one simulation cell. Each decision
// consumes pseudo-random values only when its probability is positive, so a
// disabled fault class leaves the stream (and therefore every downstream
// draw) untouched. Injectors are single-goroutine objects like the engines
// they serve; parallel experiment cells each build their own with a
// per-cell seed.
type Injector struct {
	spec Spec
	rng  *sim.Rand
	// Counters tallies every injected fault and recovery action; recovery
	// engines (Retransmitter, AsyncReader) share this same struct.
	Counters stats.FaultCounters
}

// NewInjector returns an injector for spec whose stream is derived
// deterministically from the cell seed and the spec's own Seed.
func NewInjector(spec Spec, seed uint64) *Injector {
	return &Injector{spec: spec, rng: sim.NewRand(seed ^ (spec.Seed * 0x9e3779b97f4a7c15))}
}

func (j *Injector) draw(p float64) bool {
	if p <= 0 {
		return false
	}
	return j.rng.Float64() < p
}

// DropFrame draws the per-traversal link-loss decision at probability p.
func (j *Injector) DropFrame(p float64) bool {
	if j.draw(p) {
		j.Counters.FramesDropped++
		return true
	}
	return false
}

// CorruptFrame draws the per-traversal bit-error decision.
func (j *Injector) CorruptFrame() bool {
	if j.draw(j.spec.CorruptProb) {
		j.Counters.FramesCorrupted++
		return true
	}
	return false
}

// PortDrop draws the injected switch-port tail-drop decision.
func (j *Injector) PortDrop() bool {
	if j.draw(j.spec.PortDropProb) {
		j.Counters.PortDrops++
		return true
	}
	return false
}

// LoseRDY draws the NVDIMM-P RDY-loss decision for one transaction.
func (j *Injector) LoseRDY() bool {
	if j.draw(j.spec.MemTimeoutProb) {
		j.Counters.MemTimeouts++
		return true
	}
	return false
}
