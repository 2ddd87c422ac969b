package netfunc

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"netdimm/internal/nic"
)

func TestKindFootprint(t *testing.T) {
	p := nic.Packet{Size: 1514}
	if L3F.LinesTouched(p) != 1 {
		t.Fatal("L3F should touch only the header line")
	}
	if DPI.LinesTouched(p) != 24 {
		t.Fatal("DPI should touch every cacheline")
	}
	if L3F.String() != "L3F" || DPI.String() != "DPI" {
		t.Fatal("names wrong")
	}
}

func ip(a, b, c, d byte) IPv4 {
	return IPv4(a)<<24 | IPv4(b)<<16 | IPv4(c)<<8 | IPv4(d)
}

func TestLPMBasics(t *testing.T) {
	tb := NewTable()
	tb.Insert(Route{Prefix: ip(10, 0, 0, 0), Bits: 8, NextHop: 1})
	tb.Insert(Route{Prefix: ip(10, 1, 0, 0), Bits: 16, NextHop: 2})
	tb.Insert(Route{Prefix: ip(10, 1, 2, 0), Bits: 24, NextHop: 3})
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}

	cases := []struct {
		dst  IPv4
		want int
	}{
		{ip(10, 9, 9, 9), 1},
		{ip(10, 1, 9, 9), 2},
		{ip(10, 1, 2, 3), 3},
	}
	for _, c := range cases {
		r, ok := tb.Lookup(c.dst)
		if !ok || r.NextHop != c.want {
			t.Errorf("Lookup(%v) = %v/%v, want hop %d", c.dst, r, ok, c.want)
		}
	}
	if _, ok := tb.Lookup(ip(192, 168, 0, 1)); ok {
		t.Fatal("uncovered address matched")
	}
}

func TestLPMDefaultRoute(t *testing.T) {
	tb := NewTable()
	tb.Insert(Route{Bits: 0, NextHop: 99}) // 0.0.0.0/0
	r, ok := tb.Lookup(ip(8, 8, 8, 8))
	if !ok || r.NextHop != 99 {
		t.Fatal("default route not matched")
	}
}

func TestLPMReplaceAndErrors(t *testing.T) {
	tb := NewTable()
	tb.Insert(Route{Prefix: ip(10, 0, 0, 0), Bits: 8, NextHop: 1})
	tb.Insert(Route{Prefix: ip(10, 0, 0, 0), Bits: 8, NextHop: 5})
	if tb.Len() != 1 {
		t.Fatal("replacement should not grow the table")
	}
	if r, _ := tb.Lookup(ip(10, 0, 0, 1)); r.NextHop != 5 {
		t.Fatal("replacement not applied")
	}
	if err := tb.Insert(Route{Bits: 33}); err == nil {
		t.Fatal("invalid prefix length accepted")
	}
}

// Property: the longest matching prefix always wins over shorter ones.
func TestLPMLongestWinsProperty(t *testing.T) {
	tb := NewTable()
	tb.Insert(Route{Prefix: 0, Bits: 0, NextHop: 0})
	tb.Insert(Route{Prefix: ip(172, 16, 0, 0), Bits: 12, NextHop: 12})
	tb.Insert(Route{Prefix: ip(172, 16, 5, 0), Bits: 24, NextHop: 24})
	f := func(raw uint32) bool {
		dst := IPv4(raw)
		r, ok := tb.Lookup(dst)
		if !ok {
			return false // default route always matches
		}
		in12 := dst>>20 == ip(172, 16, 0, 0)>>20
		in24 := dst>>8 == ip(172, 16, 5, 0)>>8
		switch {
		case in24:
			return r.NextHop == 24
		case in12:
			return r.NextHop == 12
		default:
			return r.NextHop == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func frameTo(dst IPv4, payload string) []byte {
	f := make([]byte, 34+len(payload))
	f[30], f[31], f[32], f[33] = byte(dst>>24), byte(dst>>16), byte(dst>>8), byte(dst)
	copy(f[34:], payload)
	return f
}

func TestForwardParsesHeader(t *testing.T) {
	tb := NewTable()
	tb.Insert(Route{Prefix: ip(10, 0, 0, 0), Bits: 8, NextHop: 7})
	hop, err := tb.Forward(frameTo(ip(10, 1, 2, 3), ""))
	if err != nil || hop != 7 {
		t.Fatalf("Forward = %d, %v", hop, err)
	}
	if _, err := tb.Forward([]byte{1, 2, 3}); err == nil {
		t.Fatal("short frame accepted")
	}
	if _, err := tb.Forward(frameTo(ip(1, 1, 1, 1), "")); err == nil {
		t.Fatal("unroutable frame accepted")
	}
}

func TestMatcherFindsAllOccurrences(t *testing.T) {
	m, err := NewMatcher("he", "she", "his", "hers")
	if err != nil {
		t.Fatal(err)
	}
	got := m.Scan([]byte("ushers"))
	// Expected matches: "she"@4, "he"@4, "hers"@6.
	if len(got) != 3 {
		t.Fatalf("matches = %v, want 3", got)
	}
	want := map[Match]bool{
		{Pattern: 1, End: 4}: true, // she
		{Pattern: 0, End: 4}: true, // he
		{Pattern: 3, End: 6}: true, // hers
	}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("unexpected match %v", g)
		}
	}
}

func TestMatcherOverlapsAndRepeats(t *testing.T) {
	m, _ := NewMatcher("aa")
	got := m.Scan([]byte("aaaa"))
	if len(got) != 3 {
		t.Fatalf("overlapping matches = %d, want 3", len(got))
	}
}

func TestMatcherContains(t *testing.T) {
	m, _ := NewMatcher("attack", "exploit")
	if !m.Contains([]byte("a harmless exploit string")) {
		t.Fatal("Contains missed a pattern")
	}
	if m.Contains([]byte("clean traffic")) {
		t.Fatal("false positive")
	}
}

func TestMatcherEmptyPatternRejected(t *testing.T) {
	if _, err := NewMatcher("ok", ""); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

// Property: Scan agrees with strings.Count-based ground truth for single
// patterns (counting overlaps via manual sliding window).
func TestMatcherAgainstNaiveProperty(t *testing.T) {
	f := func(text []byte, pat uint8) bool {
		patterns := []string{"ab", "ba", "aab"}
		p := patterns[int(pat)%len(patterns)]
		m, err := NewMatcher(p)
		if err != nil {
			return false
		}
		got := len(m.Scan(text))
		want := 0
		for i := 0; i+len(p) <= len(text); i++ {
			if bytes.Equal(text[i:i+len(p)], []byte(p)) {
				want++
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInspectorVerdicts(t *testing.T) {
	tb := NewTable()
	tb.Insert(Route{Prefix: ip(10, 0, 0, 0), Bits: 8, NextHop: 3})
	m, _ := NewMatcher("malware")
	in := &Inspector{Matcher: m, Table: tb}

	d, err := in.Inspect(frameTo(ip(10, 0, 0, 1), "regular payload"))
	if err != nil || d.Verdict != Forwarded || d.NextHop != 3 {
		t.Fatalf("clean packet: %+v, %v", d, err)
	}
	d, err = in.Inspect(frameTo(ip(10, 0, 0, 1), "contains malware here"))
	if err != nil || d.Verdict != Dropped || len(d.Matches) == 0 {
		t.Fatalf("dirty packet: %+v, %v", d, err)
	}
	if _, err := in.Inspect([]byte("x")); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestMatcherLongPayload(t *testing.T) {
	m, _ := NewMatcher("needle")
	payload := strings.Repeat("hay", 5000) + "needle" + strings.Repeat("hay", 100)
	got := m.Scan([]byte(payload))
	if len(got) != 1 {
		t.Fatalf("matches = %d", len(got))
	}
}

func BenchmarkMatcherScanMTU(b *testing.B) {
	m, _ := NewMatcher("attack", "exploit", "malware", "rootkit")
	payload := bytes.Repeat([]byte("benign traffic payload "), 66)[:1514]
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		m.Scan(payload)
	}
}

func BenchmarkLPMLookup(b *testing.B) {
	tb := NewTable()
	for i := 0; i < 1000; i++ {
		tb.Insert(Route{Prefix: IPv4(i) << 12, Bits: 20, NextHop: i})
	}
	for i := 0; i < b.N; i++ {
		tb.Lookup(IPv4(i))
	}
}
