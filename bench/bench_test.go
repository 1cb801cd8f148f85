package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/oracle"
	"zcover/internal/zcover/fuzz"
)

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPickTailLadder(t *testing.T) {
	cases := []struct {
		n      int
		name   string
		beyond int
	}{
		{1000, "p95", 50},
		{200, "p95", 10},
		{199, "p90", 19},
		{100, "p90", 10},
		{99, "p75", 24},
		{40, "p75", 10},
		{39, "p75", 9}, // too few for any rung: p75 with its real count
		{5, "p75", 1},
	}
	for _, c := range cases {
		got := pickTail(seq(c.n))
		if got.name != c.name || got.beyond != c.beyond || got.n != c.n {
			t.Errorf("n=%d: got %s with %d beyond (n=%d), want %s with %d", c.n, got.name, got.beyond, got.n, c.name, c.beyond)
		}
	}
	if got := pickTail(seq(1000)).value; math.Abs(got-950.05) > 1e-9 {
		t.Errorf("p95 of 1..1000 = %v, want 950.05", got)
	}
	if got := pickTail(nil); got.value != 0 || got.n != 0 {
		t.Errorf("empty tail = %+v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{0.1, 0.4, 0.2, 0.9, 0.3, 0.35, 0.5}, [3]float64{0.2, 0.35, 0.5}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestLogHistQuantiles(t *testing.T) {
	var h logHist
	for i := 1; i <= 10000; i++ {
		h.observe(time.Duration(i))
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 10000
		if got := h.quantileNs(q); math.Abs(got-want)/want > 0.125 {
			t.Errorf("q%.2f = %v, want %v within 12.5%%", q, got, want)
		}
	}
	var empty logHist
	if got := empty.quantileNs(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
}

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"zcover/internal/radio.(*Medium).transmit":                                       "zcover/internal/radio",
		"zcover/internal/zcover/fuzz.(*Engine).Run":                                      "zcover/internal/zcover/fuzz",
		"zcover/internal/fleet.(*Fleet[go.shape.struct { A *zcover/internal/x.Y }]).Run": "zcover/internal/fleet",
		"zcover/internal/fleet.Run[go.shape.struct {}]":                                  "zcover/internal/fleet",
		"zcover/internal/protocol.DecodeInto (inline)":                                   "zcover/internal/protocol",
		"type:.eq.zcover/internal/protocol.Frame":                                        "type:.eq.zcover/internal/protocol",
		"math/rand.(*Rand).Intn":                                                         "math/rand",
		"runtime.mallocgc":                                                               "runtime",
		"main.(*workerTripper).RoundTrip":                                                "main",
	}
	for fn, want := range cases {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// cannedTraces is `go tool pprof -traces` output in the shape the tool
// prints for a CPU profile.
const cannedTraces = `File: zbench
Build ID: 8bb2d775ce80898472379856f3462168286af446
Type: cpu
Time: 2026-10-16 01:15:37 UTC
Duration: 3.33s, Total samples = 3.08s (92.53%)
-----------+-------------------------------------------------------
      10ms   math/rand.(*Rand).Intn
             zcover/internal/vfuzz.(*Engine).nextFrame
             zcover/internal/vfuzz.(*Engine).Run
             zcover/internal/harness.RunVFuzzWith
-----------+-------------------------------------------------------
      30ms   zcover/internal/vtime.(*eventQueue).Push
             container/heap.Push
             zcover/internal/vtime.(*SimClock).Schedule
             zcover/internal/radio.(*Medium).transmit
-----------+-------------------------------------------------------
      20ms   runtime.mallocgc
             zcover/internal/zcover/mutate.(*Mutator).Next (inline)
             zcover/internal/zcover/fuzz.(*Engine).Run
             zcover/internal/fleet.(*Fleet[go.shape.struct { Campaign *zcover/internal/harness.Campaign }]).attempt
-----------+-------------------------------------------------------
      1.2s   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
      40ms   syscall.Syscall
             internal/poll.(*FD).Read
             net.(*conn).Read
             net/http.(*persistConn).Read
-----------+-------------------------------------------------------
      pprof::  label
       5ms   encoding/json.Marshal
             main.(*tracer).writeSpans
             main.main
-----------+-------------------------------------------------------
             main.zeroSample
-----------+-------------------------------------------------------
`

func TestProfileAttribution(t *testing.T) {
	samples, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("parsed %d samples, want 6", len(samples))
	}
	got := cpuByLayer(samples)
	want := map[string]time.Duration{
		"vfuzz":           10 * time.Millisecond,
		"vtime":           30 * time.Millisecond,
		"mutate":          20 * time.Millisecond,
		layerRuntime:      1200 * time.Millisecond,
		layerTransport:    40 * time.Millisecond,
		layerUnattributed: 5 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("%s = %v, want %v", layer, got[layer], d)
		}
	}
}

var (
	// metricRE is the metric-name rule; nameRE adds the length limit and
	// the leading letter or digit.
	metricRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	nameRE   = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricRE.MatchString(d.name) || !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q is not a valid name", d.name)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q is not a valid unit", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %s defined twice", d.name)
			}
			seen[d.name] = true
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(perLayer), len(endToEnd))
	}
}

// benchmarkSpec is the complete schema of BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != strings.Join(sortedKeys(workloads), ",") {
		t.Errorf("BENCHMARK.json workloads %s, program has %v", got, sortedKeys(workloads))
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	var setupBound, maxOther float64
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = math.Max(maxOther, m.Bound)
		}
	}
	if setupBound <= maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per_layer %s: better %q", m.Name, m.Better)
		}
	}
	if runs := 4 + 22*len(spec.Workloads); spec.RunSeconds*runs > 3000 {
		t.Errorf("%d runs of %ds leave no time for set-up and builds", runs, spec.RunSeconds)
	}
}

func finding(sig string, kind oracle.Kind, conf oracle.Confidence) fuzz.Finding {
	return fuzz.Finding{Signature: sig, Event: oracle.Event{Kind: kind, Confidence: conf}}
}

func TestCheckChaos(t *testing.T) {
	bug := harness.PaperBugs()[0].Signature
	jobs := []fleet.Job{{Name: "a", Device: "D1", Strategy: fuzz.StrategyFull}}
	out := func(fs ...fuzz.Finding) []harness.FleetOutcome {
		return []harness.FleetOutcome{{Campaign: &harness.Campaign{Fuzz: &fuzz.Result{PacketsSent: 1, Findings: fs}}}}
	}
	if bad := checkChaos(jobs, out(
		finding(bug, oracle.NodeTampered, oracle.ConfidenceConfirmed),
		finding("mac-parsing-fault/0x00/0x02", oracle.MACParsingFault, oracle.ConfidenceConfirmed),
		finding("service-hang/0x20/0x01", oracle.ServiceHang, oracle.ConfidenceSuspect),
	), sizing{}); len(bad) != 0 {
		t.Errorf("clean chaos outcome flagged: %v", bad)
	}
	if bad := checkChaos(jobs, out(finding("service-hang/0x20/0x01", oracle.ServiceHang, oracle.ConfidenceConfirmed)), sizing{}); len(bad) != 1 {
		t.Errorf("uncatalogued confirmed finding not flagged: %v", bad)
	}
	if bad := checkChaos(jobs, []harness.FleetOutcome{{Baseline: &fuzz.Result{PacketsSent: 1}}}, sizing{}); len(bad) != 1 {
		t.Errorf("wrong outcome kind not flagged: %v", bad)
	}
}

func TestJobsDeriveFromSeed(t *testing.T) {
	for name, w := range workloads {
		a, b := w.jobs(3, 1, sizing{}), w.jobs(3, 1, sizing{})
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d and %d jobs", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: job %d differs between two calls", name, i)
			}
		}
		if c := w.jobs(4, 1, sizing{}); c[0].Seed == a[0].Seed {
			t.Errorf("%s: seeds 3 and 4 give the same campaign seed", name)
		}
		if c := w.jobs(3, 2, sizing{}); c[0].Seed == a[0].Seed {
			t.Errorf("%s: rounds 1 and 2 give the same campaign seed", name)
		}
	}
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"sim_rate","unit":"sim-s/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	line := func(set string, seed int, digest string, v float64) string {
		raw, _ := json.Marshal(result{Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"sim_rate": {Value: v, Unit: "sim-s/s"}}})
		return strings.Join([]string{set, "table5", string(rune('0' + seed)), digest, string(raw)}, "\t")
	}
	run := func(lines ...string) (bool, string) {
		path := filepath.Join(dir, "results.tsv")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		ok, err := compareSets(path, bench, &out)
		if err != nil {
			t.Fatal(err)
		}
		return ok, out.String()
	}
	if ok, out := run(line("A", 1, "d1", 100), line("B", 1, "d1", 105), line("A", 2, "d2", 102), line("B", 2, "d2", 101)); !ok {
		t.Errorf("sets within bound reported as failing:\n%s", out)
	}
	if ok, out := run(line("A", 1, "d1", 100), line("B", 1, "d1", 130)); ok {
		t.Errorf("sets beyond bound reported as passing:\n%s", out)
	}
	if ok, out := run(line("A", 1, "d1", 100), line("B", 1, "other", 100)); ok || !strings.Contains(out, "digest") {
		t.Errorf("digest mismatch not reported:\n%s", out)
	}
}

// smokeEnv is a run environment inside the test's temp dir.
func smokeEnv(t *testing.T) env {
	return env{specPath: "../internal/cmdclass/spec_data.xml", tmp: t.TempDir(), out: t.TempDir()}
}

// TestSmokeWorkloads runs every workload at toy size — two jobs with a
// two-minute budget, one round — untraced, and checks the report.
func TestSmokeWorkloads(t *testing.T) {
	digests := map[string]string{}
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			rs := runSpec{w: workloads[name], seed: 7, seconds: time.Millisecond,
				size: sizing{jobs: 2, budget: 2 * time.Minute}, maxRounds: 1}
			var out bytes.Buffer
			res, err := bench(context.Background(), smokeEnv(t), rs, false, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
				t.Fatalf("result %+v\n%s", res, out.String())
			}
			for _, d := range endToEnd {
				if mv, ok := res.Metrics[d.name]; !ok || mv.Unit != d.unit || mv.Value <= 0 {
					t.Errorf("metric %s = %+v", d.name, mv)
				}
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not the JSON result: %v", err)
			}
			for _, l := range lines {
				if d, ok := strings.CutPrefix(l, "outcome_sha256 "); ok {
					digests[name] = d
				}
			}
		})
	}
	if digests["table5"] == "" || digests["observed"] != digests["table5"] {
		t.Errorf("observed digest %q differs from table5 digest %q", digests["observed"], digests["table5"])
	}
}

// TestSmokeTraced runs the traced path of the coordinated and chaos
// workloads at toy size. Toy runs take too few profile samples for the
// ledger gates, so only the report's shape is checked.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a run and shells out to go tool pprof")
	}
	for _, name := range []string{"coord", "chaos"} {
		t.Run(name, func(t *testing.T) {
			rs := runSpec{w: workloads[name], seed: 7, seconds: time.Millisecond,
				size: sizing{jobs: 2, budget: 2 * time.Minute}, maxRounds: 1}
			var out bytes.Buffer
			res, err := bench(context.Background(), smokeEnv(t), rs, true, &out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted != 4 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, l := range strings.Split(out.String(), "\n") {
				if v, ok := strings.CutPrefix(l, "violation: "); ok && !strings.HasPrefix(v, "ledger:") {
					t.Errorf("violation: %s", v)
				}
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			if name == "coord" && res.Metrics["coord.lease_ms.p50"].Value <= 0 {
				t.Errorf("coordinator requests were not traced")
			}
			if name == "chaos" && res.Metrics["chaos.intercept_ns.p50"].Value <= 0 {
				t.Errorf("chaos interceptions were not timed")
			}
		})
	}
}
