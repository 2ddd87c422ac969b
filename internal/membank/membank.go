// Package membank is the functional (data-carrying) half of the memory
// model: a sparse, page-granular byte store for a DIMM's local address
// space. The timing models elsewhere say *when* data moves; membank says
// *what* moved, so tests can assert end-to-end data integrity — a packet
// DMA-written by the nNIC, cloned by the RowClone engine, and read back by
// the host must come out byte-identical.
package membank

import (
	"fmt"

	"netdimm/internal/addrmap"
)

// Store is a sparse byte-addressable memory. Unwritten bytes read as zero.
// The zero value is ready to use.
type Store struct {
	pages map[int64][]byte
	// writes and reads count bytes moved, for accounting tests.
	bytesWritten int64
	bytesRead    int64
}

// New returns an empty store.
func New() *Store { return &Store{pages: make(map[int64][]byte)} }

func (s *Store) page(base int64, create bool) []byte {
	if s.pages == nil {
		s.pages = make(map[int64][]byte)
	}
	p, ok := s.pages[base]
	if !ok && create {
		p = make([]byte, addrmap.PageSize)
		s.pages[base] = p
	}
	return p
}

// Write stores data at addr, spanning pages as needed. Negative addresses
// are rejected.
func (s *Store) Write(addr int64, data []byte) error {
	if addr < 0 {
		return fmt.Errorf("membank: negative address %d", addr)
	}
	s.bytesWritten += int64(len(data))
	for len(data) > 0 {
		base := addr &^ (addrmap.PageSize - 1)
		off := addr - base
		p := s.page(base, true)
		n := copy(p[off:], data)
		data = data[n:]
		addr += int64(n)
	}
	return nil
}

// Read returns n bytes starting at addr. Unwritten regions are zero.
func (s *Store) Read(addr int64, n int) ([]byte, error) {
	if addr < 0 || n < 0 {
		return nil, fmt.Errorf("membank: invalid read addr=%d n=%d", addr, n)
	}
	s.bytesRead += int64(n)
	out := make([]byte, n)
	dst := out
	for len(dst) > 0 {
		base := addr &^ (addrmap.PageSize - 1)
		off := addr - base
		span := int(addrmap.PageSize - off)
		if span > len(dst) {
			span = len(dst)
		}
		if p := s.page(base, false); p != nil {
			copy(dst[:span], p[off:])
		}
		dst = dst[span:]
		addr += int64(span)
	}
	return out, nil
}

// Clone copies n bytes from src to dst — the functional effect of a
// RowClone operation (any mode: FPM/PSM/GCM all produce the same bytes).
// Overlapping ranges see a snapshot of the source taken before the copy,
// matching the engine's read-then-write behaviour. The copy runs page to
// page with no intermediate buffer, and a never-written source range
// creates no destination page: it only clears the destination bytes of a
// page that already holds data. Traffic counts n bytes read and n written,
// as a Read followed by a Write would.
func (s *Store) Clone(dst, src int64, n int) error {
	if n < 0 {
		return fmt.Errorf("membank: negative clone length %d", n)
	}
	if src < 0 {
		return fmt.Errorf("membank: invalid read addr=%d n=%d", src, n)
	}
	s.bytesRead += int64(n)
	if dst < 0 {
		return fmt.Errorf("membank: negative address %d", dst)
	}
	s.bytesWritten += int64(n)
	// A destination that starts inside the source range is copied from the
	// end backwards, so no source byte is overwritten before it is read.
	backward := dst > src && dst < src+int64(n)
	for left := int64(n); left > 0; {
		var d, sa, k int64
		if backward {
			k = min(left, tailInPage(src+left), tailInPage(dst+left))
			d, sa = dst+left-k, src+left-k
		} else {
			d, sa = dst+int64(n)-left, src+int64(n)-left
			k = min(left, headInPage(sa), headInPage(d))
		}
		s.cloneSpan(d, sa, k)
		left -= k
	}
	return nil
}

// headInPage returns how many bytes of addr's page lie at or after addr.
func headInPage(addr int64) int64 { return addrmap.PageSize - addr&(addrmap.PageSize-1) }

// tailInPage returns how many bytes of the page holding end-1 lie before end.
func tailInPage(end int64) int64 { return (end-1)&(addrmap.PageSize-1) + 1 }

// cloneSpan copies k bytes from src to dst; neither range crosses a page
// boundary.
func (s *Store) cloneSpan(dst, src, k int64) {
	const mask = addrmap.PageSize - 1
	doff := dst & mask
	sp := s.page(src&^mask, false)
	if sp == nil {
		if dp := s.page(dst&^mask, false); dp != nil {
			clear(dp[doff : doff+k])
		}
		return
	}
	dp := s.page(dst&^mask, true)
	soff := src & mask
	copy(dp[doff:doff+k], sp[soff:soff+k])
}
