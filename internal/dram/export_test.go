package dram

import "netdimm/internal/addrmap"

// WouldHit reports whether an access to the rank-local address would be a
// row hit right now.
func (r *Rank) WouldHit(local int64) bool {
	l := addrmap.DecodeRank(local)
	return r.banks[l.Bank].openRow == l.GlobalRow()
}
