package dram

import "netdimm/internal/addrmap"

// WouldHit reports whether an access to the rank-local address would be a
// row hit right now.
func (r *Rank) WouldHit(local int64) bool {
	_, bank, row := addrmap.BankRow(local)
	return r.banks[bank].openRow == row
}
