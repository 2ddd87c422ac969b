package spec

import (
	"reflect"
	"strings"
	"testing"

	"netdimm/internal/addrmap"
	"netdimm/internal/core"
	"netdimm/internal/cpu"
	"netdimm/internal/dram"
	"netdimm/internal/driver"
	"netdimm/internal/ethernet"
	"netdimm/internal/memctrl"
	"netdimm/internal/pcie"
)

// The Table 1 spec must derive exactly the parameter sets the substrate
// packages ship as defaults — this is what keeps every default-config
// figure bit-identical to the calibrated baseline.
func TestTableOneDerivesDefaults(t *testing.T) {
	d, err := TableOne().Derive()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Costs, driver.DefaultCosts(); got != want {
		t.Errorf("Costs = %+v, want DefaultCosts %+v", got, want)
	}
	if got, want := d.Core, core.DefaultConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("Core = %+v, want core.DefaultConfig %+v", got, want)
	}
	if got, want := d.MC, memctrl.DefaultConfig(); !reflect.DeepEqual(got, want) {
		t.Errorf("MC = %+v, want memctrl.DefaultConfig %+v", got, want)
	}
	if got, want := d.HostTiming, dram.DDR4_2400(); !reflect.DeepEqual(got, want) {
		t.Errorf("HostTiming = %+v, want DDR4-2400 %+v", got, want)
	}
	if got, want := d.PCIe, pcie.NewLink(pcie.Gen4, 8); got != want {
		t.Errorf("PCIe = %+v, want x8 Gen4 %+v", got, want)
	}
	if got, want := d.Link, ethernet.LinkGbps(40); got != want {
		t.Errorf("Link = %+v, want 40GbE %+v", got, want)
	}
	// NET_0 sits right above the 16GB host DDR region — the base the
	// pre-derivation code hard-coded as 16<<30.
	if got := d.ZoneBase(0); got != 16<<30 {
		t.Errorf("ZoneBase(0) = %d, want %d", got, int64(16)<<30)
	}
}

func TestDeriveDDR5(t *testing.T) {
	s := TableOne()
	s.DRAM = "DDR5-4800"
	d, err := s.Derive()
	if err != nil {
		t.Fatal(err)
	}
	want := dram.DDR5_4800()
	if !reflect.DeepEqual(d.HostTiming, want) {
		t.Errorf("HostTiming = %+v, want DDR5-4800", d.HostTiming)
	}
	// The NetDIMM's local modules share the channel technology.
	if !reflect.DeepEqual(d.Core.LocalTiming, want) {
		t.Errorf("Core.LocalTiming = %+v, want DDR5-4800", d.Core.LocalTiming)
	}
}

func TestDerivePCIeGen3(t *testing.T) {
	s := TableOne()
	s.PCIe = "x16 PCIe Gen3"
	d, err := s.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.PCIe, pcie.NewLink(pcie.Gen3, 16); got != want {
		t.Errorf("PCIe = %+v, want x16 Gen3 %+v", got, want)
	}
}

func TestDeriveNonTableOneCosts(t *testing.T) {
	s := TableOne()
	s.CoreGHz = 2.0
	d, err := s.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if d.Costs == driver.DefaultCosts() {
		t.Fatal("a slower core must not reuse the calibrated Table 1 costs")
	}
	// Lowering the clock inflates the modelled pure-CPU driver stages
	// relative to the same model at the Table 1 clock.
	model34 := driver.CostsFromParams(cpu.TableOne())
	if d.Costs.AllocCacheLookup <= model34.AllocCacheLookup {
		t.Errorf("2GHz AllocCacheLookup %v not above modelled 3.4GHz %v",
			d.Costs.AllocCacheLookup, model34.AllocCacheLookup)
	}
}

// NET_i zones stack above the 16GB host DDR region, NetDIMMSizeGB each.
func TestDeriveMultiNetDIMMZoneBases(t *testing.T) {
	s := TableOne()
	s.NetDIMMSizeGB = 32
	d, err := s.Derive()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got, want := d.ZoneBase(i), int64(16+32*i)<<30; got != want {
			t.Errorf("ZoneBase(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestDeriveLinkRate(t *testing.T) {
	s := TableOne()
	s.NetworkGbps = 100
	d, err := s.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if d.Link.BitsPerSec != 100e9 {
		t.Errorf("BitsPerSec = %g, want 100e9", d.Link.BitsPerSec)
	}
}

func TestValidateErrors(t *testing.T) {
	mut := func(f func(*Spec)) Spec {
		s := TableOne()
		f(&s)
		return s
	}
	cases := []struct {
		name string
		s    Spec
		frag string
	}{
		{"freq", mut(func(s *Spec) { s.CoreGHz = -1 }), "CoreGHz"},
		{"superscalar", mut(func(s *Spec) { s.SuperscalarW = 0 }), "SuperscalarW"},
		{"rob", mut(func(s *Spec) { s.ROBEntries = 0 }), "ROB"},
		{"cachelat", mut(func(s *Spec) { s.L1DLatCycles = 0 }), "cache latencies"},
		{"network", mut(func(s *Spec) { s.NetworkGbps = 0 }), "NetworkGbps"},
		{"switch", mut(func(s *Spec) { s.SwitchLatNs = -1 }), "SwitchLatNs"},
		{"ndsize", mut(func(s *Spec) { s.NetDIMMSizeGB = 12 }), "rank size"},
		{"dram", mut(func(s *Spec) { s.DRAM = "DDR3-1600" }), "DDR4-2400"},
		{"pcie", mut(func(s *Spec) { s.PCIe = "x8 AGP" }), "cannot parse"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.s.Validate()
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not mention %q", err, c.frag)
			}
			if _, err := c.s.Derive(); err == nil {
				t.Error("Derive accepted an invalid spec")
			}
		})
	}
}

func TestMustDerivePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustDerive did not panic")
		}
	}()
	s := TableOne()
	s.CoreGHz = 0
	s.MustDerive()
}

func TestDeriveRanksScaleWithCapacity(t *testing.T) {
	s := TableOne()
	d := s.MustDerive()
	if got := d.Core.Ranks; got != 2 {
		t.Fatalf("16GB NetDIMM ranks = %d, want 2", got)
	}
	s.NetDIMMSizeGB = 32
	if got := s.MustDerive().Core.Ranks; got != 4 {
		t.Fatalf("32GB NetDIMM ranks = %d, want 4", got)
	}
	if addrmap.RankBytes != 8<<30 {
		t.Fatalf("RankBytes = %d, want 8GB", int64(addrmap.RankBytes))
	}
}
