// Quickstart: build two NetDIMM servers, send one packet between them,
// and print the latency breakdown next to the PCIe-NIC baseline.
package main

import (
	"flag"
	"fmt"
	"log"

	"netdimm"
)

func main() {
	scenario := flag.String("scenario", "", "system to simulate: a preset name or a JSON config file (default table1)")
	flag.Parse()
	cfg, err := netdimm.LoadScenario(*scenario)
	if err != nil {
		log.Fatal(err)
	}

	// Two servers, each with a NetDIMM (NIC integrated into the DIMM
	// buffer device, packets living in the DIMM's local DRAM).
	tx, err := netdimm.NewNetDIMMWithConfig(cfg, 1)
	if err != nil {
		log.Fatal(err)
	}
	rx, err := netdimm.NewNetDIMMWithConfig(cfg, 2)
	if err != nil {
		log.Fatal(err)
	}

	// The servers sit one switch apart; its latency is the scenario's
	// SwitchLatNs (100ns in Table 1).
	const packet = 256 // bytes
	nd, err := netdimm.OneWayLatencyWithConfig(cfg, tx, rx, packet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NetDIMM one-way %dB packet:\n  %v\n\n", packet, nd)

	// The same transfer through conventional PCIe NICs.
	txN, err := netdimm.NewDNICWithConfig(cfg, false)
	if err != nil {
		log.Fatal(err)
	}
	rxN, err := netdimm.NewDNICWithConfig(cfg, false)
	if err != nil {
		log.Fatal(err)
	}
	dn, err := netdimm.OneWayLatencyWithConfig(cfg, txN, rxN, packet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PCIe NIC one-way %dB packet:\n  %v\n\n", packet, dn)

	fmt.Printf("NetDIMM is %.1f%% faster: no PCIe round trips (ioReg %v vs %v),\n",
		100*(1-float64(nd.Total)/float64(dn.Total)), nd.IOReg, dn.IOReg)
	fmt.Printf("no driver copies (in-memory cloning: rxCopy %v vs %v),\n", nd.RxCopy, dn.RxCopy)
	fmt.Printf("at the price of cache coherency work (txFlush %v + rxInvalidate %v).\n",
		nd.TxFlush, nd.RxInvalidate)
}
