package fabric

import (
	"netdimm/internal/sim"
)

// Health is the fabric's failure-state view: which spines, leaves and
// leaf↔spine trunks are currently up. The topology's ECMP consults it at
// every routing decision, so a flow hashed onto a down spine re-hashes
// over the surviving ones (failover) and a leaf that has lost every
// uplink falls back to a single fixed path whose frames drop until
// recovery (degraded mode — the ARQ above keeps retrying through it).
//
// Outage windows flip the down counters as ordinary scheduled events on
// the cell's engine, and every read happens while routing. Elements track a
// down *depth*, not a flag, so overlapping outage windows compose: an
// element is up again only when every covering window has ended.
type Health struct {
	spineDown []int   // down-window depth per spine
	leafDown  []int   // down-window depth per leaf
	trunkDown [][]int // [leaf][spine] down-window depth
	up        [][]int // per-leaf list of spines with a healthy path, rebuilt on flips

	stats HealthStats
}

// HealthStats are the failure plane's fabric-side tallies.
type HealthStats struct {
	// Transitions counts spine/leaf/trunk state flips applied (down and
	// up both count; link flips are tallied by the topology per host).
	Transitions uint64
	// OutageDrops counts frames eaten by a down element: dropped at a
	// down source/destination leaf, a dead trunk, or a spine that was (or
	// went) down when the frame reached it — in-flight frames included.
	OutageDrops uint64
	// Rerouted counts frames steered off their ECMP-primary spine by
	// failover.
	Rerouted uint64
	// Degraded counts frames forced onto the single-path fallback because
	// their leaf had no healthy uplink at all.
	Degraded uint64
	// FirstReroute is the instant of the first failover routing decision,
	// or -1 if none happened — the fabric half of time-to-reroute.
	FirstReroute sim.Time
}

func newHealth(leaves, spines int) *Health {
	h := &Health{
		spineDown: make([]int, spines),
		leafDown:  make([]int, leaves),
		trunkDown: make([][]int, leaves),
		up:        make([][]int, leaves),
	}
	for l := range h.trunkDown {
		h.trunkDown[l] = make([]int, spines)
	}
	h.stats.FirstReroute = -1
	h.rebuild()
	return h
}

// Stats returns the current tallies.
func (h *Health) Stats() HealthStats { return h.stats }

// SpineUp reports whether spine s is up.
func (h *Health) SpineUp(s int) bool { return h.spineDown[s] == 0 }

// LeafUp reports whether leaf l is up.
func (h *Health) LeafUp(l int) bool { return h.leafDown[l] == 0 }

// TrunkUp reports whether the leaf-l ↔ spine-s cable is up.
func (h *Health) TrunkUp(l, s int) bool { return h.trunkDown[l][s] == 0 }

// pathUp reports whether leaf l can currently reach spine s.
func (h *Health) pathUp(l, s int) bool { return h.SpineUp(s) && h.TrunkUp(l, s) }

// shiftSpine, shiftLeaf and shiftTrunk move an element's down depth by
// ±1; the per-leaf healthy-spine lists are rebuilt on every flip (the
// fabric is small — leaves×spines entries — and flips are rare).
func (h *Health) shiftSpine(s, by int) { h.spineDown[s] += by; h.flipped() }
func (h *Health) shiftLeaf(l, by int)  { h.leafDown[l] += by; h.flipped() }
func (h *Health) shiftTrunk(l, s, by int) {
	h.trunkDown[l][s] += by
	h.flipped()
}

func (h *Health) flipped() {
	h.stats.Transitions++
	h.rebuild()
}

func (h *Health) rebuild() {
	for l := range h.up {
		ups := h.up[l][:0]
		for s := range h.spineDown {
			if h.pathUp(l, s) {
				ups = append(ups, s)
			}
		}
		h.up[l] = ups
	}
}

// spineFor picks the spine for a flow out of leaf l whose ECMP hash named
// `primary`: the primary when its path is healthy, a deterministic
// re-hash over leaf l's surviving uplinks otherwise, and the fixed
// degraded path (spine 0) when no uplink survives. The flow returns to
// its primary the moment that path recovers, since the selection is a
// pure function of (hash, health state).
func (h *Health) spineFor(l, primary int, hash uint64) (s int, failover, degraded bool) {
	if h.pathUp(l, primary) {
		return primary, false, false
	}
	ups := h.up[l]
	if len(ups) == 0 {
		return 0, false, true
	}
	return ups[hash%uint64(len(ups))], true, false
}

// route is spineFor plus accounting, called once per routed frame.
func (h *Health) route(l, primary int, hash uint64, now sim.Time) int {
	s, failover, degraded := h.spineFor(l, primary, hash)
	if failover {
		h.stats.Rerouted++
		if h.stats.FirstReroute < 0 {
			h.stats.FirstReroute = now
		}
	}
	if degraded {
		h.stats.Degraded++
	}
	return s
}
