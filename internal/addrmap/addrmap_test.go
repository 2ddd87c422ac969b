package addrmap

import (
	"testing"
	"testing/quick"
)

func TestRankGeometryConstants(t *testing.T) {
	if RankBytes != 8<<30 {
		t.Fatalf("RankBytes = %d, want 8GB", RankBytes)
	}
	if SubarraysPerRank != 8192 {
		t.Fatalf("SubarraysPerRank = %d, want 8K", SubarraysPerRank)
	}
	if SameSubarrayPageStride != 32*PageSize {
		t.Fatalf("SameSubarrayPageStride = %d, want 32 pages", SameSubarrayPageStride)
	}
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		// Two ranks of 8GB -> 34 address bits.
		local := int64(raw % (2 * uint64(RankBytes)))
		return EncodeRank(DecodeRank(local)) == local
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFieldsInRange(t *testing.T) {
	f := func(raw uint64) bool {
		local := int64(raw % (2 * uint64(RankBytes)))
		l := DecodeRank(local)
		return l.Rank >= 0 && l.Rank < 2 &&
			l.Bank >= 0 && l.Bank < BanksPerRank &&
			l.Subarray >= 0 && l.Subarray < SubarraysPerBank &&
			l.Row >= 0 && l.Row < RowsPerSubarray &&
			l.Column >= 0 && l.Column < RankRowBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Paper Fig. 9c: pages sharing a bank and sub-array are spaced every 128KB
// (32 pages).
func TestSameSubarrayStride(t *testing.T) {
	base := int64(0x1234000) &^ (PageSize - 1)
	if !SameSubarray(base, base+SameSubarrayPageStride) {
		t.Fatal("pages 128KB apart should share a sub-array")
	}
	if !SameSubarray(base, base+5*SameSubarrayPageStride) {
		t.Fatal("pages k*128KB apart (within the row field) should share a sub-array")
	}
	// Adjacent pages fall in the same 8KB row only when they are the two
	// halves of one row; otherwise they differ in bank.
	for k := int64(1); k < 32; k++ {
		a, b := base, base+k*PageSize
		if k%2 == 1 && (b/PageSize)%2 == 1 {
			continue // other half of the same row: same sub-array by design
		}
		if SameSubarray(a, b) && k != 0 {
			// Pages less than 128KB apart (excluding the half-row pair)
			// must not share a (bank, sub-array).
			la, lb := DecodeRank(a), DecodeRank(b)
			if la.Bank == lb.Bank && la.Subarray == lb.Subarray && la.Row == lb.Row {
				continue
			}
			t.Fatalf("pages %d pages apart unexpectedly share a sub-array", k)
		}
	}
}

func TestSameSubarrayHalfRowPair(t *testing.T) {
	// A 4KB page is half of an 8KB row, so page 2n and 2n+1 share the row
	// and therefore the sub-array.
	if !SameSubarray(0, PageSize) {
		t.Fatal("the two halves of one row should share a sub-array")
	}
}

func TestSubarrayKeyDense(t *testing.T) {
	seen := make(map[SubarrayKey]bool)
	// Walk one page per (bank, sub-array) pair in rank 0.
	for bank := 0; bank < BanksPerRank; bank++ {
		for sub := 0; sub < SubarraysPerBank; sub++ {
			addr := EncodeRank(Location{Bank: bank, Subarray: sub})
			k := SubarrayOf(addr)
			if k < 0 || int(k) >= SubarraysPerRank {
				t.Fatalf("key %d out of range", k)
			}
			if seen[k] {
				t.Fatalf("duplicate key %d for bank %d sub %d", k, bank, sub)
			}
			seen[k] = true
		}
	}
	if len(seen) != SubarraysPerRank {
		t.Fatalf("got %d distinct keys, want %d", len(seen), SubarraysPerRank)
	}
	// Rank 1 keys must not collide with rank 0 keys.
	k1 := SubarrayOf(EncodeRank(Location{Rank: 1}))
	if seen[k1] {
		t.Fatal("rank 1 key collides with rank 0")
	}
}

func TestSameRank(t *testing.T) {
	if !SameRank(0, RankBytes-1) {
		t.Fatal("addresses within rank 0 should be same rank")
	}
	if SameRank(0, RankBytes) {
		t.Fatal("rank 0 and rank 1 addresses should differ")
	}
}

func TestGlobalRowUnique(t *testing.T) {
	seen := make(map[int]bool)
	for bank := 0; bank < BanksPerRank; bank += 5 {
		for sub := 0; sub < SubarraysPerBank; sub += 37 {
			for row := 0; row < RowsPerSubarray; row += 11 {
				l := Location{Bank: bank, Subarray: sub, Row: row}
				_, _, gr := BankRow(EncodeRank(l))
				if seen[gr] {
					t.Fatalf("BankRow's flat row collides at %v", l)
				}
				seen[gr] = true
			}
		}
	}
}

// SubarrayOf and SameSubarray read the key straight off the address bits;
// both must agree with the key DecodeRank's fields give, for any address.
func TestSubarrayOfMatchesDecode(t *testing.T) {
	f := func(a, b int64, near uint32) bool {
		la := DecodeRank(a)
		want := SubarrayKey((la.Rank*BanksPerRank+la.Bank)*SubarraysPerBank + la.Subarray)
		b2 := a ^ int64(near) // shares a's high bits, often its key
		return SubarrayOf(a) == want &&
			SameSubarray(a, b) == (SubarrayOf(a) == SubarrayOf(b)) &&
			SameSubarray(a, b2) == (SubarrayOf(a) == SubarrayOf(b2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// BankRow and PageIndex read DecodeRank's fields straight off the address
// bits; both must agree with DecodeRank for any address.
func TestBankRowMatchesDecode(t *testing.T) {
	f := func(a int64) bool {
		l := DecodeRank(a)
		rank, bank, row := BankRow(a)
		return rank == l.Rank && bank == l.Bank &&
			row == (l.Bank*SubarraysPerBank+l.Subarray)*RowsPerSubarray+l.Row &&
			PageIndex(a) == l.Row<<1|int(l.Column>>PageShift)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
