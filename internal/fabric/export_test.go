package fabric

// SpineFor returns the spine the (src, dst) flow currently routes over:
// the ECMP hash's pick, unless a failure schedule is armed and that
// spine's path is down — then the hash re-rolls over the surviving
// uplinks (failover), or the degraded single path when none survive. It
// panics on a spineless fabric (no cross-leaf path exists to choose).
func (t *Topology) SpineFor(src, dst int) int {
	if len(t.spines) == 0 {
		panic("fabric: no spines to hash over")
	}
	h := FlowHash(uint64(src), uint64(dst), t.spec.Seed)
	primary := int(h % uint64(len(t.spines)))
	if t.health == nil {
		return primary
	}
	s, _, _ := t.health.spineFor(t.LeafOf(src), primary, h)
	return s
}

// PerSpineForwarded returns each spine's total forwarded-frame count in
// spine order — the per-spine view of an ECMP failover: an outage shifts
// counts off the down spine onto the survivors.
func (t *Topology) PerSpineForwarded() []uint64 {
	out := make([]uint64, len(t.spines))
	for i, sp := range t.spines {
		for p := 0; p < sp.Ports(); p++ {
			out[i] += sp.Port(p).Stats().Forwarded
		}
	}
	return out
}
