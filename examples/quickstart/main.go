// Quickstart: simulate one weekday on the paper's §5.1 VDI cluster —
// 30 home hosts with 30 desktop VMs each plus 4 consolidation hosts —
// under the FulltoPartial policy, and print the energy outcome.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"oasis"
	"oasis/internal/cluster"
)

func main() {
	cfg := oasis.DefaultSimConfig()
	cfg.Cluster.Policy = oasis.FulltoPartial
	cfg.TraceSeed = 42
	cfg.Cluster.Seed = 42

	res, err := oasis.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Oasis quickstart: one simulated weekday, 900 VDI VMs, FulltoPartial policy")
	fmt.Printf("  baseline (homes always powered): %6.1f kWh\n", res.BaselineJoules/3.6e6)
	fmt.Printf("  with hybrid consolidation:       %6.1f kWh\n", res.OasisJoules/3.6e6)
	fmt.Printf("  energy savings:                  %6.1f %%   (paper: up to 28%% on weekdays)\n", res.SavingsPct)
	fmt.Println()
	fmt.Printf("  peak simultaneous active VMs: %d of 900\n", res.PeakActive)
	fmt.Printf("  zero-latency user returns:    %.0f%% of %d idle→active transitions\n",
		100*res.Stats.ZeroDelayFraction(), res.Stats.Transitions())
	fmt.Printf("  partial migrations: %d first, %d differential; reintegrations: %d\n",
		res.Stats.Ops[cluster.OpPartialFirst], res.Stats.Ops[cluster.OpPartialDiff], res.Stats.Ops[cluster.OpReintegrate])

	// The day at a glance.
	fmt.Println("\n  hour  active  powered-hosts")
	for h := 0; h < 24; h += 2 {
		var act, pow int
		for i := h * 12; i < (h+2)*12; i++ {
			act += res.ActiveSeries[i]
			pow += res.PoweredSeries[i]
		}
		fmt.Printf("  %02d:00 %6.0f %8.1f\n", h, float64(act)/24, float64(pow)/24)
	}
}
