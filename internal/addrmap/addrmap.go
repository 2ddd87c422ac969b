// Package addrmap implements the address mapping of a NetDIMM rank: the
// rank/bank/sub-array/row decode of paper Fig. 9 and the sub-array
// geometry the allocator and RowClone build on.
//
// # Rank geometry (paper Fig. 9a)
//
// A NetDIMM rank consists of eight x8 DRAM devices; each device has 16
// banks, each bank 512 sub-arrays, each sub-array 128 rows of 1KB. The
// eight devices operate in lock-step behind the 64-bit data bus, so at rank
// level a row is 8KB and the rank capacity is
// 16 banks x 512 sub-arrays x 128 rows x 8KB = 8GB.
//
// # Address layout (paper Fig. 9b/9c)
//
// The paper states the key property of the layout directly: 4KB pages that
// share a bank and sub-array are spaced every 128KB — i.e. every 32 pages.
// The layout below reproduces that property exactly. Bits, LSB first, of a
// rank-local address:
//
//	[0:12)   offset within a 4KB page (column bits)
//	[12:13)  half-row selector (a 4KB page is half of an 8KB rank row)
//	[13:17)  bank (16 banks)
//	[17:24)  row within sub-array (128 rows)
//	[24:33)  sub-array (512 sub-arrays)
//
// With the row bits directly above the bank bits, two pages share a
// (bank, sub-array) pair exactly when their addresses agree on bits [13:17)
// and [24:33); the nearest row-distinct such pages are 2^17 = 128KB apart.
package addrmap

import "fmt"

// Fixed architectural constants (paper Sec. 4.1 footnote 1 and Sec. 4.2.1).
const (
	CachelineSize int64 = 64
	PageSize      int64 = 4096
	PageShift           = 12
)

// Rank geometry constants from paper Fig. 9a.
const (
	BanksPerRank     = 16
	SubarraysPerBank = 512
	RowsPerSubarray  = 128
	RankRowBytes     = 8 * 1024 // 1KB per device x 8 devices
	RankBytes        = int64(BanksPerRank) * SubarraysPerBank * RowsPerSubarray * RankRowBytes

	// SubarraysPerRank is the number of distinct (bank, sub-array) pairs in
	// one rank: 16 x 512 = 8K (paper Sec. 4.2.2).
	SubarraysPerRank = BanksPerRank * SubarraysPerBank

	// SameSubarrayPageStride is the address distance between row-distinct
	// pages that share a bank and sub-array: 128KB, or 32 pages (Fig. 9c).
	SameSubarrayPageStride int64 = 128 * 1024
)

// Bit-field positions of the rank-local layout.
const (
	bankShift     = 13
	bankBits      = 4
	rowShift      = 17
	rowBits       = 7
	subarrayShift = 24
	subarrayBits  = 9
	rankShift     = 33
)

// Location is a fully decoded DRAM coordinate within a DIMM.
type Location struct {
	Rank     int
	Bank     int
	Subarray int
	Row      int   // row within the sub-array
	Column   int64 // byte offset within the 8KB rank row
}

// String renders the location compactly for traces and test failures.
func (l Location) String() string {
	return fmt.Sprintf("r%d/b%d/s%d/row%d+%d", l.Rank, l.Bank, l.Subarray, l.Row, l.Column)
}

// DecodeRank decodes a DIMM-local address into a Location. DIMM-local means
// the address after system-level channel/region decode; rank selection uses
// the bits directly above the rank-local layout.
func DecodeRank(dimmLocal int64) Location {
	local := dimmLocal & (1<<rankShift - 1)
	pageHalf := (local >> PageShift) & 1
	return Location{
		Rank:     int(dimmLocal >> rankShift),
		Bank:     int((local >> bankShift) & (1<<bankBits - 1)),
		Subarray: int((local >> subarrayShift) & (1<<subarrayBits - 1)),
		Row:      int((local >> rowShift) & (1<<rowBits - 1)),
		Column:   (local & (PageSize - 1)) | pageHalf<<PageShift,
	}
}

// BankRow returns the rank, the bank and the flat row within the rank
// (bank-major: (bank*SubarraysPerBank + sub-array)*RowsPerSubarray + row,
// the row-buffer key of the DRAM model) of a DIMM-local address. It reads
// them off the address bits without building a Location, which at five
// fields the compiler keeps in memory rather than in registers.
func BankRow(dimmLocal int64) (rank, bank, row int) {
	return int(dimmLocal >> rankShift), int(dimmLocal >> bankShift & (1<<bankBits - 1)),
		int(dimmLocal>>bankShift&(1<<bankBits-1)<<(subarrayBits+rowBits) |
			dimmLocal>>subarrayShift&(1<<subarrayBits-1)<<rowBits |
			dimmLocal>>rowShift&(1<<rowBits-1))
}

// PageIndex returns the index of the 4KB page holding a DIMM-local address
// among its sub-array's pages: Row*2 plus the half-row selector.
func PageIndex(dimmLocal int64) int {
	return int(dimmLocal>>rowShift&(1<<rowBits-1))<<1 | int(dimmLocal>>PageShift&1)
}

// EncodeRank is the inverse of DecodeRank.
func EncodeRank(l Location) int64 {
	pageHalf := (l.Column >> PageShift) & 1
	local := l.Column & (PageSize - 1)
	local |= pageHalf << PageShift
	local |= int64(l.Bank) << bankShift
	local |= int64(l.Row) << rowShift
	local |= int64(l.Subarray) << subarrayShift
	return local | int64(l.Rank)<<rankShift
}

// SubarrayKey identifies a (rank, bank, sub-array) triple — the granularity
// at which the allocCache of the NetDIMM driver pre-allocates pages (paper
// Sec. 4.2.2). Keys are dense in [0, ranks*SubarraysPerRank).
type SubarrayKey int32

// SubarrayOf returns the SubarrayKey of a DIMM-local address:
// (rank*BanksPerRank + bank)*SubarraysPerBank + sub-array, read straight
// off the address bits.
func SubarrayOf(dimmLocal int64) SubarrayKey {
	return SubarrayKey(dimmLocal>>rankShift<<(bankBits+subarrayBits) |
		dimmLocal>>bankShift&(1<<bankBits-1)<<subarrayBits |
		dimmLocal>>subarrayShift&(1<<subarrayBits-1))
}

// subarrayBitsMask covers the address bits SubarrayOf reads.
const subarrayBitsMask = -1<<rankShift | (1<<bankBits-1)<<bankShift | (1<<subarrayBits-1)<<subarrayShift

// SameSubarray reports whether two DIMM-local addresses share a rank, bank
// and sub-array — the prerequisite for RowClone fast parallel mode (FPM).
func SameSubarray(a, b int64) bool { return (a^b)&subarrayBitsMask == 0 }

// SameRank reports whether two DIMM-local addresses are in the same rank —
// the prerequisite for RowClone pipeline serial mode (PSM) when the bank
// differs.
func SameRank(a, b int64) bool { return a>>rankShift == b>>rankShift }
