// Command bench is the campaign benchmark: it runs one workload of
// fuzzing campaigns for a fixed time through the program's public
// campaign APIs, checks the campaigns' outputs, and prints every metric
// as "name value unit" followed by one JSON result line.
//
//	bash bench/run.sh --workload table5 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// spends half the time untraced and half traced and reports the
// per-layer metrics instead. See bench/README.md for the workloads, the
// metrics, and how to read the ledger.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricValue is one metric in the JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run parses the command line, runs the benchmark, and returns the exit
// code: 0 when every output check passed, 1 when one failed, 2 when the
// benchmark could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table5, observed, chaos, or coord")
	seed := fs.Int64("seed", 1, "workload seed; every campaign seed derives from it")
	seconds := fs.Float64("seconds", 20, "measurement time; the round in progress when it ends completes")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	compare := fs.String("compare", "", "summarize a results file written by bench/stability.sh instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		ok, err := compareSets(*compare, "BENCHMARK.json", stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want --workload table5|observed|chaos|coord, --seconds > 0, --trace 0|1")
		return 2
	}
	e, err := newEnv(".")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(e.tmp)
	rs := runSpec{w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	res, err := bench(context.Background(), e, rs, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// newEnv lays out a run's files under root/.bench_build.
func newEnv(root string) (env, error) {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return env{}, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return env{}, err
	}
	return env{
		specPath: filepath.Join(root, "internal", "cmdclass", "spec_data.xml"),
		tmp:      tmp,
		out:      filepath.Join(build, "out"),
	}, nil
}

// bench runs one benchmark invocation and prints its report to stdout.
func bench(ctx context.Context, e env, rs runSpec, traced bool, stdout io.Writer) (result, error) {
	setup, err := setUp(ctx, e, rs.w, rs.seed, rs.size)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	var defs []metricDef
	var values map[string]float64
	var stats []*runStats
	var info []string
	if traced {
		ref, st, m, err := tracedRun(ctx, e, rs)
		if err != nil {
			return result{}, err
		}
		defs, values, stats = perLayer, m, []*runStats{ref, st}
	} else {
		st, err := measure(ctx, e, rs, nil)
		if err != nil {
			return result{}, err
		}
		m, t, wall := endToEndMetrics(st, setup)
		defs, values, stats = endToEnd, m, []*runStats{st}
		info = append(info, fmt.Sprintf("campaign_cpu_s.tail is %s of %d ZCover campaigns (%d beyond it)", t.name, t.n, t.beyond), wall)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, st := range stats {
		res.Attempted += st.jobs
		res.Failed += st.failed
		if len(st.violations) > 0 {
			res.Correct = false
		}
		for _, v := range st.violations {
			fmt.Fprintln(stdout, "violation:", v)
		}
	}
	st := stats[len(stats)-1]
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	fmt.Fprintf(stdout, "outcome_sha256 %s\n", stats[0].digest)
	info = append(info,
		fmt.Sprintf("workload %s seed %d: %d rounds, %d campaigns, %d test frames in %.3fs timed",
			rs.w.name, rs.seed, st.rounds, st.jobs, st.frames, st.wall.Seconds()),
		fmt.Sprintf("host: %s, GOMAXPROCS=%d, NumCPU=%d", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()))
	for _, line := range info {
		fmt.Fprintln(stdout, "#", line)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(stdout, string(raw))
	return res, nil
}
