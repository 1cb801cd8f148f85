package zcover_test

import (
	"fmt"
	"time"

	"zcover"
)

// ExampleRun fingerprints the ZooZ controller and fuzzes it for twenty
// simulated minutes — the whole paper pipeline in four lines.
func ExampleRun() {
	tb, err := zcover.NewTestbed("D1", 1)
	if err != nil {
		panic(err)
	}
	job := zcover.FleetJob{Strategy: zcover.StrategyFull, Budget: 20 * time.Minute, Seed: 1}
	out, err := zcover.Run(tb, job, zcover.Options{})
	if err != nil {
		panic(err)
	}
	campaign := out.Campaign
	fmt.Printf("network %s: %d classes prioritised, %d commands validated\n",
		campaign.Fingerprint.Home, campaign.Fuzz.ClassesCovered, campaign.Fuzz.CommandsCovered)
	first := campaign.Fuzz.Findings[0]
	fmt.Printf("first finding after %s: %s\n", first.Elapsed.Round(time.Second), first.Signature)
	fmt.Printf("unique vulnerabilities in 20 minutes: %d\n", len(campaign.Fuzz.Findings))
	// Output:
	// network E7DE3F3D: 45 classes prioritised, 53 commands validated
	// first finding after 22s: service-hang/0x01/0x04
	// unique vulnerabilities in 20 minutes: 10
}

// ExamplePaperBugs walks the Table III catalogue.
func ExamplePaperBugs() {
	bugs := zcover.PaperBugs()
	fmt.Printf("%d zero-day vulnerabilities\n", len(bugs))
	cves := 0
	for _, b := range bugs {
		if b.Confirmed != "confirmed" {
			cves++
		}
	}
	fmt.Printf("%d with CVE IDs; bug 01 is %s via CMDCL 0x%02X\n",
		cves, bugs[0].Confirmed, bugs[0].CMDCL)
	// Output:
	// 15 zero-day vulnerabilities
	// 12 with CVE IDs; bug 01 is CVE-2024-50929 via CMDCL 0x01
}

// ExampleRun_baseline runs the VFuzz comparison target for one simulated
// hour against the Aeotec controller.
func ExampleRun_baseline() {
	tb, err := zcover.NewTestbed("D4", 2)
	if err != nil {
		panic(err)
	}
	out, err := zcover.Run(tb, zcover.FleetJob{Baseline: true, Budget: time.Hour, Seed: 2}, zcover.Options{})
	if err != nil {
		panic(err)
	}
	res := out.Baseline
	fmt.Printf("VFuzz sweeps %d command classes blindly\n", res.ClassesCovered)
	// Output:
	// VFuzz sweeps 256 command classes blindly
}
