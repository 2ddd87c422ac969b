package netfunc

import (
	"testing"

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
