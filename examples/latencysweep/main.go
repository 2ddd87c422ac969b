// Latencysweep reproduces the shape of the paper's Fig. 4 and Fig. 11 on
// the command line: a packet-size sweep over all five NIC configurations
// with the latency breakdown of each, plus NetDIMM's reductions.
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

	sizes := []int{10, 60, 200, 500, 1000, 2000, 4000, 8000}

	fmt.Println("Baseline NIC architectures (Fig. 4):")
	fmt.Printf("%6s  %9s  %9s  %9s  %9s  %10s\n",
		"size", "dNIC", "dNIC.zcpy", "iNIC", "iNIC.zcpy", "pcie.overh")
	fig4, err := netdimm.RunFig4WithConfig(cfg, sizes, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range fig4 {
		fmt.Printf("%6d  %9v  %9v  %9v  %9v  %9.1f%%\n",
			r.Size, r.DNIC.Duration(), r.DNICZcpy.Duration(), r.INIC.Duration(), r.INICZcpy.Duration(),
			r.PCIeShare*100)
	}

	fmt.Println("\nNetDIMM vs the baselines (Fig. 11):")
	rows, _, err := netdimm.RunFig11Observed(cfg, sizes, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%6s  %9s  %9s  %9s  %9s  %9s\n",
		"size", "dNIC", "iNIC", "NetDIMM", "vs dNIC", "vs iNIC")
	var sumD, sumI float64
	for _, r := range rows {
		fmt.Printf("%6d  %9v  %9v  %9v  %8.1f%%  %8.1f%%\n",
			r.Size, r.DNIC.Total().Duration(), r.INIC.Total().Duration(), r.NetDIMM.Total().Duration(),
			r.ReductionVsDNIC()*100, r.ReductionVsINIC()*100)
		sumD += r.ReductionVsDNIC()
		sumI += r.ReductionVsINIC()
	}
	n := float64(len(rows))
	fmt.Printf("\naverage reduction: %.1f%% vs dNIC (paper: 49.9%%), %.1f%% vs iNIC (paper: 25.9%%)\n",
		sumD/n*100, sumI/n*100)

	// Where does NetDIMM's time go for an MTU packet?
	for _, r := range rows {
		if r.Size == 2000 {
			nd := netdimm.NewLatencyBreakdown(r.NetDIMM)
			fmt.Printf("\n2000B NetDIMM breakdown: %v\n", nd)
			flushShare := float64(nd.TxFlush+nd.RxInvalidate) / float64(nd.Total)
			fmt.Printf("flush+invalidate overhead: %.1f%% of the total (paper: 9.7-15.8%%)\n", flushShare*100)
		}
	}
}
