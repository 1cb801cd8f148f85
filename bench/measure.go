package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"zcover/internal/chaos"
	"zcover/internal/cmdclass"
	"zcover/internal/coord"
	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/obs"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
)

// env is where a run reads its inputs and writes its scratch files.
type env struct {
	// specPath is the specification database the set-up parses.
	specPath string
	// tmp holds journals, span files, and profiles; removed at exit.
	tmp string
	// out receives the traced run's span file.
	out string
}

// runSpec is one measurement: a workload, its seed, and how long to run.
type runSpec struct {
	w       *workload
	seed    int64
	seconds time.Duration
	size    sizing
	// maxRounds stops after this many rounds even with time left (0 =
	// run until the time is up). Round 0 always runs to completion.
	maxRounds int
}

// recorderDepth is the flight-recorder depth the observed workload
// attaches, as the README's forensics recipe does.
const recorderDepth = 16

// meter accumulates wall time, CPU time, and allocator activity over
// the timed regions of a run.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	ms0  runtime.MemStats

	wall, cpu      time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

// start opens a timed region.
func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

// stop closes the timed region opened by start.
func (m *meter) stop() {
	wall := time.Since(m.t0)
	cpu := cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.wall += wall
	m.cpu += cpu - m.cpu0
	m.mallocs += ms.Mallocs - m.ms0.Mallocs
	m.bytes += ms.TotalAlloc - m.ms0.TotalAlloc
	m.gcCycles += ms.NumGC - m.ms0.NumGC
	m.gcPause += time.Duration(ms.PauseTotalNs - m.ms0.PauseTotalNs)
}

// Linux clock_gettime clock IDs. getrusage lags the scheduler's exact
// accounting by up to a tick per thread, too coarse for millisecond
// campaigns; these clocks read it directly.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU-time clock, or 0 when it cannot.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTime is the process's CPU time.
func cpuTime() time.Duration { return cpuClock(clockProcessCPU) }

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or 0
// when /proc does not report it.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			return v / 1024
		}
	}
	return 0
}

// roundResult is one round's outputs.
type roundResult struct {
	// outs is index-aligned with the round's jobs; errs[i] is non-nil
	// where job i failed after its retries.
	outs []harness.FleetOutcome
	errs []error
	// retries counts attempts beyond each job's first.
	retries int
}

// runStats is what a measurement produced.
type runStats struct {
	meter
	rounds, jobs, failed, retries int
	frames                        int64
	simSec                        float64
	// campaignCPU is each ZCover campaign's CPU time in seconds.
	campaignCPU []float64
	violations  []string
	// perRound holds each round's own totals.
	perRound []roundTotals
	// digest is round 0's outcome digest.
	digest string
}

// roundTotals is one round's timed wall and CPU time and its work.
type roundTotals struct {
	wall, cpu time.Duration
	frames    int64
	simSec    float64
}

// measure runs rounds of the workload until rs.seconds have passed and
// returns the totals over the rounds' timed regions. With tr non-nil the
// layer boundaries are traced.
func measure(ctx context.Context, e env, rs runSpec, tr *tracer) (*runStats, error) {
	st := &runStats{}
	fcfg := fleet.Config{Workers: 1}
	var afterSweep func() error
	if rs.w.observed {
		harness.SetFleetRecorderDepth(recorderDepth)
		defer harness.SetFleetRecorderDepth(0)
		spans, err := os.CreateTemp(e.tmp, "spans-*.jsonl")
		if err != nil {
			return nil, err
		}
		defer spans.Close()
		fcfg.Tracer = telemetry.NewTracer(spans, nil)
		fcfg.Timeline = obs.NewTimeline()
		metricsPath := filepath.Join(e.tmp, "metrics.json")
		afterSweep = func() error { return telemetry.Default().WriteFile(metricsPath) }
	}
	runner := harness.RunFleetJob
	if tr != nil {
		if fcfg.Timeline == nil {
			fcfg.Timeline = obs.NewTimeline()
		}
		tr.addTimeline(fcfg.Timeline)
		runner = tr.chaosRunner()
	}
	var clock campaignClock
	runner = clock.wrap(runner)
	defer func() { st.campaignCPU = clock.samples() }()

	begin := time.Now()
	for round := 0; ; round++ {
		jobs := rs.w.jobs(rs.seed, round, rs.size)
		if err := screenChaos(jobs); err != nil {
			return st, err
		}
		before := roundTotals{st.wall, st.cpu, st.frames, st.simSec}
		var rr roundResult
		var err error
		if rs.w.coordinated {
			rr, err = runCoordRound(ctx, e, jobs, round, runner, &st.meter, tr)
		} else {
			rr, err = runFleetRound(jobs, fcfg, runner, afterSweep, &st.meter)
		}
		if err != nil {
			return st, fmt.Errorf("round %d: %w", round, err)
		}
		st.add(rs.w, jobs, rr, rs.size)
		st.perRound = append(st.perRound, roundTotals{st.wall - before.wall, st.cpu - before.cpu,
			st.frames - before.frames, st.simSec - before.simSec})
		if round == 0 {
			st.digest = outcomeDigest(jobs, rr.outs)
		}
		st.rounds++
		// Stop at the round boundary nearest to the time limit.
		elapsed := time.Since(begin)
		avgRound := elapsed / time.Duration(st.rounds)
		if (rs.maxRounds > 0 && st.rounds >= rs.maxRounds) || elapsed+avgRound/2 >= rs.seconds {
			return st, nil
		}
	}
}

// runFleetRound runs one sweep through a local fleet. afterSweep, when
// set, runs inside the timed region once the sweep is done.
func runFleetRound(jobs []fleet.Job, cfg fleet.Config, runner fleet.Runner[harness.FleetOutcome],
	afterSweep func() error, m *meter) (roundResult, error) {
	m.start()
	results := fleet.Run(jobs, runner, cfg)
	var err error
	if afterSweep != nil {
		err = afterSweep()
	}
	m.stop()
	if err != nil {
		return roundResult{}, err
	}
	rr := roundResult{outs: make([]harness.FleetOutcome, len(jobs)), errs: make([]error, len(jobs))}
	for i, res := range results {
		rr.outs[i], rr.errs[i] = res.Value, res.Err
		if res.Attempts > 1 {
			rr.retries += res.Attempts - 1
		}
	}
	return rr, nil
}

// campaignClock records the CPU time each ZCover campaign spends on the
// thread that runs it: the campaign's own cost, which — unlike its wall
// time — does not grow when the host lends the CPU to someone else.
type campaignClock struct {
	mu  sync.Mutex
	cpu []float64
}

// wrap returns runner with every successful ZCover campaign timed. The
// campaign goroutine is locked to its thread so the thread's CPU clock
// covers exactly the campaign.
func (c *campaignClock) wrap(runner fleet.Runner[harness.FleetOutcome]) fleet.Runner[harness.FleetOutcome] {
	return func(tb *testbed.Testbed, job fleet.Job, ob *fleet.Observer) (harness.FleetOutcome, error) {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := cpuClock(clockThreadCPU)
		out, err := runner(tb, job, ob)
		if err == nil && !job.Baseline {
			d := cpuClock(clockThreadCPU) - start
			c.mu.Lock()
			c.cpu = append(c.cpu, d.Seconds())
			c.mu.Unlock()
		}
		return out, err
	}
}

// samples returns the recorded campaign CPU times in seconds.
func (c *campaignClock) samples() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.cpu...)
}

// add folds one round into the totals and runs the workload's checks.
// A job counts as failed when it errored or failed a check.
func (st *runStats) add(w *workload, jobs []fleet.Job, rr roundResult, sz sizing) {
	st.jobs += len(jobs)
	st.retries += rr.retries
	failed := 0
	for i, err := range rr.errs {
		if err != nil {
			failed++
			st.violations = append(st.violations, fmt.Sprintf("%s: %v", jobs[i].Label(), err))
			continue
		}
		res := rr.outs[i].Fuzz()
		st.frames += int64(res.PacketsSent)
		st.simSec += res.Elapsed.Seconds()
	}
	if failed == 0 {
		bad := w.check(jobs, rr.outs, sz)
		st.violations = append(st.violations, bad...)
		failed = min(len(bad), len(jobs))
	}
	st.failed += failed
}

// setupReps is how many times a run repeats its set-up to report a
// median set-up time.
const setupReps = 15

// setUp measures the work that stands between process start and the
// first campaign: parsing the specification database, building the job
// list, parsing its chaos profiles, and — for the coordinated workload —
// hashing the campaign spec, creating the coordinator and its journal,
// binding its listener, and fetching /manifest. It repeats that work
// setupReps times and returns the median CPU time (the process's, so the
// coordinator's side of /manifest counts too). CPU time leaves out the
// journal's fsync wait, which on shared storage varies by half from one
// minute to the next.
func setUp(ctx context.Context, e env, w *workload, seed int64, sz sizing) (time.Duration, error) {
	spec, err := os.ReadFile(e.specPath)
	if err != nil {
		return 0, fmt.Errorf("reading the specification database: %w", err)
	}
	times := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		d, err := setUpOnce(ctx, e, w, seed, sz, spec, rep)
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
	}
	// Campaigns share the process-wide registry; load it once here so the
	// first campaign does not pay for it.
	if _, err := cmdclass.Load(); err != nil {
		return 0, err
	}
	return time.Duration(median(times) * float64(time.Second)), nil
}

// setUpOnce performs one set-up and returns its CPU time; the teardown
// is not measured.
func setUpOnce(ctx context.Context, e env, w *workload, seed int64, sz sizing, spec []byte, rep int) (time.Duration, error) {
	cpu0 := cpuTime()
	if _, err := cmdclass.Parse(spec); err != nil {
		return 0, err
	}
	jobs := w.jobs(seed, 0, sz)
	for _, job := range jobs {
		if job.ChaosProfile != "" {
			if _, err := chaos.ParseProfile(job.ChaosProfile); err != nil {
				return 0, err
			}
		}
	}
	if !w.coordinated {
		return cpuTime() - cpu0, nil
	}
	name := fmt.Sprintf("setup-%d", rep)
	hash, err := harness.CampaignSpecHash(name, jobs)
	if err != nil {
		return 0, err
	}
	dir := filepath.Join(e.tmp, name)
	defer os.RemoveAll(dir)
	c, err := coord.New(coord.Config{Campaign: name, Jobs: jobs, SpecHash: hash, Dir: dir})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	srv, base, err := serve(c.Handler())
	if err != nil {
		return 0, err
	}
	defer srv.close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/manifest", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /manifest: %s", resp.Status)
	}
	return cpuTime() - cpu0, err
}

// server is an HTTP server on a loopback port.
type server struct {
	srv  *http.Server
	done chan struct{}
}

// serve starts h on an ephemeral loopback port and returns its base URL.
func serve(h http.Handler) (*server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	s := &server{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, "http://" + ln.Addr().String(), nil
}

// close stops the server and waits for its goroutine.
func (s *server) close() {
	_ = s.srv.Close() // closing listeners and connections cannot fail usefully here
	<-s.done
}

// endToEnd lists the end-to-end metrics in print order.
var endToEnd = []metricDef{
	{"sim_rate", "sim-s/cpu-s"},
	{"cpu_us_per_frame", "us"},
	{"campaign_cpu_s.p50", "s"},
	{"campaign_cpu_s.tail", "s"},
	{"setup_s", "s"},
	{"allocs_per_frame", "1"},
	{"bytes_per_frame", "B"},
	{"peak_rss_mb", "MB"},
}

// metricDef names a metric and its unit.
type metricDef struct {
	name, unit string
}

// ratio divides, returning 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEndMetrics derives the end-to-end metrics of an untraced run.
// Time is CPU time: on a shared host a run's wall time moves with the
// load other tenants put on it, its CPU time far less. Rates are medians
// over the run's rounds — each round is the same mix of campaigns — so a
// burst of contention moves them less than it moves a whole-run total.
// The wall-clock rates are returned too, for information.
func endToEndMetrics(st *runStats, setup time.Duration) (map[string]float64, tail, string) {
	var simRate, cpuPerFrame, wallSimRate, wallFrameRate []float64
	for _, r := range st.perRound {
		simRate = append(simRate, ratio(r.simSec, r.cpu.Seconds()))
		cpuPerFrame = append(cpuPerFrame, ratio(r.cpu.Seconds()*1e6, float64(r.frames)))
		wallSimRate = append(wallSimRate, ratio(r.simSec, r.wall.Seconds()))
		wallFrameRate = append(wallFrameRate, ratio(float64(r.frames), r.wall.Seconds()))
	}
	t := pickTail(st.campaignCPU)
	frames := float64(st.frames)
	wall := fmt.Sprintf("wall clock: %.6g sim-s/s, %.6g frames/s (round medians, not gated)",
		median(wallSimRate), median(wallFrameRate))
	return map[string]float64{
		"sim_rate":            median(simRate),
		"cpu_us_per_frame":    median(cpuPerFrame),
		"campaign_cpu_s.p50":  percentile(st.campaignCPU, 0.5),
		"campaign_cpu_s.tail": t.value,
		"setup_s":             setup.Seconds(),
		"allocs_per_frame":    ratio(float64(st.mallocs), frames),
		"bytes_per_frame":     ratio(float64(st.bytes), frames),
		"peak_rss_mb":         peakRSSMB(),
	}, t, wall
}
