// Quickstart: assemble the simulated smart home around one of the paper's
// controllers, run the full ZCover pipeline for a short budget, and print
// what it finds. This is the library's one-screen introduction.
package main

import (
	"fmt"
	"log"
	"time"

	"zcover"
)

func main() {
	// The testbed: a Samsung SmartThings hub (D6 of Table II) with an
	// S2-paired door lock and a legacy binary switch.
	tb, err := zcover.NewTestbed("D6", 1)
	if err != nil {
		log.Fatal(err)
	}

	// One call runs all three ZCover phases: passive/active
	// fingerprinting, unknown-command-class discovery, and
	// position-sensitive fuzzing. Thirty minutes of simulated fuzzing
	// completes in well under a second of real time.
	job := zcover.FleetJob{Strategy: zcover.StrategyFull, Budget: 30 * time.Minute, Seed: 1}
	out, err := zcover.Run(tb, job, zcover.Options{})
	if err != nil {
		log.Fatal(err)
	}
	campaign := out.Campaign

	fmt.Printf("target network  %s (controller node %s)\n",
		campaign.Fingerprint.Home, campaign.Fingerprint.Controller)
	fmt.Printf("listed classes  %d  |  unknown classes discovered  %d\n",
		len(campaign.Fingerprint.Listed), campaign.Discovery.UnknownCount())
	fmt.Printf("test packets    %d\n\n", campaign.Fuzz.PacketsSent)

	fmt.Printf("unique vulnerabilities found: %d\n", len(campaign.Fuzz.Findings))
	for _, f := range campaign.Fuzz.Findings {
		fmt.Printf("  %-8s  %-32s  payload % X\n",
			f.Elapsed.Round(time.Second), f.Signature, f.TriggerPayload)
	}

	// The oracle's view: what the homeowner's equipment experienced.
	fmt.Printf("\ncontroller memory after the campaign (%d entries): %v\n",
		tb.Controller.Table().Len(), tb.Controller.Table().IDs())
	fmt.Printf("smartphone app healthy: %v\n", tb.Controller.Host().Healthy())
}
