package core

import (
	"testing"

	"netdimm/internal/addrmap"
)

// FuzzNCacheSnoop holds the bounded snoop to a full scan. The input is a
// stream of 4-byte steps on an 8-set, 2-way nCache and a twin with the
// same replacement seed: byte 0 picks Insert (header or prefetch), Read or
// a range snoop, bytes 1–2 the line index (up to 1023, so tags alias onto
// every set) and byte 3 the snoop length (1–64 lines). The twin snoops
// every line of the range. After each step both must report the same
// Stats and hold the same lines among all those the stream touched.
func FuzzNCacheSnoop(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 2, 0, 0, 8})
	f.Add([]byte{1, 40, 0, 0, 0, 2, 0, 0, 2, 0, 0, 63, 3, 2, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 16, 1, 0, 1, 32, 1, 0, 2, 255, 0, 63, 0, 8, 0, 0, 2, 8, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c, ref := NewNCache(16, 2, 7), NewNCache(16, 2, 7)
		touched := map[int64]bool{}
		for i := 0; i+4 <= len(ops); i += 4 {
			op := ops[i : i+4]
			li := int64(op[1]) | int64(op[2]&3)<<8
			addr := li * addrmap.CachelineSize
			switch op[0] % 4 {
			case 0, 1:
				header := op[0]%4 == 0
				c.Insert(addr, header, !header)
				ref.Insert(addr, header, !header)
				touched[li] = true
			case 2:
				hit, header := c.Read(addr)
				refHit, refHeader := ref.Read(addr)
				if hit != refHit || header != refHeader {
					t.Fatalf("step %d: Read(line %d) = %v, %v; full scan %v, %v", i/4, li, hit, header, refHit, refHeader)
				}
				touched[li] = true
			default:
				n := int64(op[3]%64) + 1
				c.invalidateRange(addr, n)
				for k := int64(0); k < n; k++ {
					ref.drop(ref.locateLine(li + k))
				}
			}
			if c.Stats() != ref.Stats() {
				t.Fatalf("step %d: stats %+v, full scan %+v", i/4, c.Stats(), ref.Stats())
			}
			for l := range touched {
				if a := l * addrmap.CachelineSize; c.Contains(a) != ref.Contains(a) {
					t.Fatalf("step %d: Contains(line %d) = %v, full scan %v", i/4, l, c.Contains(a), ref.Contains(a))
				}
			}
		}
	})
}
