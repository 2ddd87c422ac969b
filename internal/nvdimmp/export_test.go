package nvdimmp

import "netdimm/internal/sim"

// Expired reports whether the transaction is still pending, has not raised
// RDY, and has passed its deadline at time now.
func (tr *Tracker) Expired(id RequestID, now sim.Time) bool {
	tx, ok := tr.pending[id]
	return ok && !tx.ready && now >= tx.Deadline
}
