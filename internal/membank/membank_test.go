package membank

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"netdimm/internal/addrmap"
)

func TestWriteReadRoundTrip(t *testing.T) {
	s := New()
	data := []byte("hello netdimm")
	if err := s.Write(100, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(100, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	s := New()
	got, err := s.Read(1<<30, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten memory not zero")
		}
	}
	if s.PagesResident() != 0 {
		t.Fatal("read should not materialise pages")
	}
}

func TestCrossPageWrite(t *testing.T) {
	s := New()
	addr := addrmap.PageSize - 5
	data := []byte("0123456789")
	if err := s.Write(addr, data); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read(addr, len(data))
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-page round trip failed: %q", got)
	}
	if s.PagesResident() != 2 {
		t.Fatalf("PagesResident = %d, want 2", s.PagesResident())
	}
}

func TestClone(t *testing.T) {
	s := New()
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 757) // 1514B
	s.Write(0x1000, payload)
	if err := s.Clone(0x200000, 0x1000, len(payload)); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read(0x200000, len(payload))
	if !bytes.Equal(got, payload) {
		t.Fatal("clone corrupted data")
	}
	// Source intact.
	src, _ := s.Read(0x1000, len(payload))
	if !bytes.Equal(src, payload) {
		t.Fatal("clone damaged source")
	}
}

func TestCloneOverlapping(t *testing.T) {
	s := New()
	s.Write(0, []byte("abcdefgh"))
	if err := s.Clone(4, 0, 8); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read(4, 8)
	if string(got) != "abcdefgh" {
		t.Fatalf("overlapping clone = %q, want snapshot semantics", got)
	}
}

func TestValidation(t *testing.T) {
	s := New()
	if err := s.Write(-1, []byte{1}); err == nil {
		t.Error("negative write accepted")
	}
	if _, err := s.Read(-1, 4); err == nil {
		t.Error("negative read accepted")
	}
	if _, err := s.Read(0, -4); err == nil {
		t.Error("negative length accepted")
	}
	if err := s.Clone(0, 0, -1); err == nil {
		t.Error("negative clone accepted")
	}
}

func TestTrafficAccounting(t *testing.T) {
	s := New()
	s.Write(0, make([]byte, 100))
	s.Read(0, 50)
	w, r := s.Traffic()
	if w != 100 || r != 50 {
		t.Fatalf("traffic = %d/%d", w, r)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Store
	if err := s.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Read(0, 1)
	if got[0] != 1 {
		t.Fatal("zero-value store broken")
	}
}

// Property: the store behaves like a flat byte array.
func TestStoreVsFlatModelProperty(t *testing.T) {
	const span = 3 * 4096
	f := func(ops []struct {
		Addr uint16
		Data []byte
	}) bool {
		s := New()
		flat := make([]byte, span+1<<16+256)
		for _, op := range ops {
			data := op.Data
			if len(data) > 200 {
				data = data[:200]
			}
			addr := int64(op.Addr)
			if err := s.Write(addr, data); err != nil {
				return false
			}
			copy(flat[addr:], data)
		}
		// Compare a few windows.
		for _, at := range []int64{0, 4090, 8192, 300} {
			got, err := s.Read(at, 64)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, flat[at:at+64]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refClone is the reference Clone: read the whole source, then write it.
func refClone(s *Store, dst, src int64, n int) error {
	data, err := s.Read(src, n)
	if err != nil {
		return err
	}
	return s.Write(dst, data)
}

// Property: Clone leaves every byte and both traffic counters exactly as
// the reference Read+Write does, across page boundaries, overlapping
// ranges, an unwritten source over a written destination and a written
// source over an unwritten one; it never holds more pages than the
// reference.
func TestCloneMatchesReadWriteProperty(t *testing.T) {
	const (
		pg     = addrmap.PageSize
		window = 12 * pg // region A is [0, 5pg), region B is [6pg, 11pg)
	)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 3000; iter++ {
		n := rng.Intn(int(2*pg) + 1)
		src := rng.Int63n(3 * pg)
		dst := rng.Int63n(3 * pg)
		var writes [][2]int64 // {addr, len}
		mode := iter % 4
		switch mode {
		case 0: // anything in region A
			for k := rng.Intn(4); k > 0; k-- {
				writes = append(writes, [2]int64{rng.Int63n(4 * pg), rng.Int63n(2 * pg)})
			}
		case 1: // overlapping: dst within n of src, either side
			if n > 0 {
				dst = src + rng.Int63n(int64(2*n)) - int64(n)
				if dst < 0 {
					dst = 0
				}
			}
			writes = append(writes, [2]int64{src, int64(n)}, [2]int64{rng.Int63n(4 * pg), rng.Int63n(2 * pg)})
		case 2: // unwritten source in region B over a written destination
			src += 6 * pg
			writes = append(writes, [2]int64{dst + rng.Int63n(64), int64(n) - rng.Int63n(int64(n)+1)})
		case 3: // written source over an unwritten destination in region B
			dst += 6 * pg
			writes = append(writes, [2]int64{src, int64(n)})
		}
		got, want := New(), New()
		for i, w := range writes {
			data := make([]byte, w[1])
			for j := range data {
				data[j] = byte(i*31 + j*7 + 1)
			}
			got.Write(w[0], data)
			want.Write(w[0], data)
		}
		if err := got.Clone(dst, src, n); err != nil {
			t.Fatal(err)
		}
		if err := refClone(want, dst, src, n); err != nil {
			t.Fatal(err)
		}
		gw, gr := got.Traffic()
		ww, wr := want.Traffic()
		if gw != ww || gr != wr {
			t.Fatalf("iter %d mode %d: traffic %d/%d, reference %d/%d", iter, mode, gw, gr, ww, wr)
		}
		if got.PagesResident() > want.PagesResident() {
			t.Fatalf("iter %d mode %d: %d pages resident, reference %d", iter, mode, got.PagesResident(), want.PagesResident())
		}
		a, _ := got.Read(0, int(window))
		b, _ := want.Read(0, int(window))
		if !bytes.Equal(a, b) {
			i := 0
			for a[i] == b[i] {
				i++
			}
			t.Fatalf("iter %d mode %d: clone(dst=%d, src=%d, n=%d) differs at byte %d: %d, reference %d",
				iter, mode, dst, src, n, i, a[i], b[i])
		}
	}
}

// A clone whose source and destination were never written moves no data:
// it creates no page, and still counts its traffic.
func TestCloneUnwrittenCreatesNoPage(t *testing.T) {
	s := New()
	if err := s.Clone(0x200000, 0x1000, 3*int(addrmap.PageSize)); err != nil {
		t.Fatal(err)
	}
	if s.PagesResident() != 0 {
		t.Fatalf("PagesResident = %d after unwritten clone, want 0", s.PagesResident())
	}
	w, r := s.Traffic()
	if want := 3 * addrmap.PageSize; w != want || r != want {
		t.Fatalf("traffic = %d/%d, want %d/%d", w, r, want, want)
	}
}
