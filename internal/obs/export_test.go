package obs

import "netdimm/internal/sim"

// Sum returns the summed duration of every span on the track.
func (t *Track) Sum() sim.Time {
	var total sim.Time
	if t != nil {
		for _, s := range t.spans {
			total += s.End - s.Start
		}
	}
	return total
}
