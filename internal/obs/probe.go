package obs

import "netdimm/internal/sim"

// EngineProbe implements sim.Probe over registry counters: every schedule,
// fire and cancel on the instrumented engine bumps a named tally. It is the
// event-level view the kernel-side hooks exist for — cheap enough to leave
// attached for a whole run, detailed enough to compare event volumes across
// cells and configurations.
type EngineProbe struct {
	scheduled *Counter
	fired     *Counter
	cancelled *Counter
}

// NewEngineProbe builds a probe over reg with metric names
// prefix+".scheduled" / ".fired" / ".cancelled". It returns nil — which
// Attach treats as "leave the engine unprobed" — when reg is nil, so the
// call chain composes with a disabled registry.
func NewEngineProbe(reg *Registry, prefix string) *EngineProbe {
	if reg == nil {
		return nil
	}
	return &EngineProbe{
		scheduled: reg.Counter(prefix + ".scheduled"),
		fired:     reg.Counter(prefix + ".fired"),
		cancelled: reg.Counter(prefix + ".cancelled"),
	}
}

// Attach arms eng with the probe. The nil check lives here because a nil
// *EngineProbe stored into the sim.Probe interface would be non-nil and
// the engine would invoke it — the classic typed-nil trap.
func (p *EngineProbe) Attach(eng *sim.Engine) {
	if p != nil {
		eng.SetProbe(p)
	}
}

// OnSchedule implements sim.Probe.
func (p *EngineProbe) OnSchedule(sim.Time) { p.scheduled.Inc() }

// OnFire implements sim.Probe.
func (p *EngineProbe) OnFire(sim.Time) { p.fired.Inc() }

// OnCancel implements sim.Probe.
func (p *EngineProbe) OnCancel(sim.Time) { p.cancelled.Inc() }
