package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets reads a results file written by bench/stability.sh — one
// line per run: set, workload, seed, outcome digest, and the run's JSON
// result, tab-separated — and prints each set's median and quartiles per
// metric and workload. It reports false when the two sets' medians
// differ by more than a metric's bound from BENCHMARK.json, when a run
// failed, or when two runs of one workload and seed disagree on the
// outcome digest.
func compareSets(resultsPath, benchmarkPath string, out io.Writer) (bool, error) {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	f, err := os.Open(resultsPath)
	if err != nil {
		return false, err
	}
	defer f.Close()

	type key struct{ workload, set string }
	values := map[key]map[string][]float64{}
	digests := map[string]string{}
	var workloadOrder []string
	seenWorkload := map[string]bool{}
	ok := true
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.SplitN(sc.Text(), "\t", 5)
		if len(fields) != 5 {
			continue
		}
		set, wl, seed, digest := fields[0], fields[1], fields[2], fields[3]
		var res result
		if err := json.Unmarshal([]byte(fields[4]), &res); err != nil {
			fmt.Fprintf(out, "FAIL %s set %s seed %s: no result (%v)\n", wl, set, seed, err)
			ok = false
			continue
		}
		if !res.Correct || res.Failed > 0 {
			fmt.Fprintf(out, "FAIL %s set %s seed %s: output checks failed\n", wl, set, seed)
			ok = false
		}
		id := wl + " seed " + seed
		if prev, seen := digests[id]; seen && prev != digest {
			fmt.Fprintf(out, "FAIL %s: outcome digest %s differs from %s\n", id, digest, prev)
			ok = false
		}
		digests[id] = digest
		if !seenWorkload[wl] {
			seenWorkload[wl] = true
			workloadOrder = append(workloadOrder, wl)
		}
		k := key{wl, set}
		if values[k] == nil {
			values[k] = map[string][]float64{}
		}
		for name, mv := range res.Metrics {
			values[k][name] = append(values[k][name], mv.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}

	fmt.Fprintf(out, "%-9s %-18s %-36s %-36s %8s %6s\n", "workload", "metric", "set A median [q1 q3] spread", "set B median [q1 q3] spread", "diff", "bound")
	for _, wl := range workloadOrder {
		for _, m := range bf.EndToEnd {
			a, b := values[key{wl, "A"}][m.Name], values[key{wl, "B"}][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			diff := math.Abs(mb-ma) / math.Abs(ma)
			verdict := ""
			if ma == 0 || diff > m.Bound {
				verdict = "  FAIL"
				ok = false
			}
			fmt.Fprintf(out, "%-9s %-18s %-36s %-36s %7.2f%% %5.0f%%%s\n",
				wl, m.Name, summary(a), summary(b), 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

// summary renders a set's median, quartiles, and spread (the quartile
// distance as a share of the median).
func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %.1f%%", med, q1, q3, 100*ratio(q3-q1, math.Abs(med)))
}
