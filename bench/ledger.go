package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// The ledger charges every CPU-profile and allocation-profile sample to
// one layer: the innermost zcover/internal/... package on the sample's
// stack. Stacks with no repo frame go to transport (net/http and the
// network stack), runtime (nothing but runtime frames: GC workers, the
// scheduler), or unattributed. Layers are named by the package's last
// path element ("zcover/internal/zcover/fuzz" is "fuzz").

// repoPrefix marks a package of the program under test.
const repoPrefix = "zcover/internal/"

// Ledger buckets for stacks without a repo frame.
const (
	layerRuntime      = "runtime"
	layerTransport    = "transport"
	layerUnattributed = "unattributed"
)

// funcPackage returns the import path of a symbolized function name such
// as "zcover/internal/radio.(*Medium).transmit" or
// "zcover/internal/fleet.(*Fleet[go.shape.struct { ... }]).Run.func1".
func funcPackage(fn string) string {
	fn = strings.TrimSuffix(strings.TrimSpace(fn), " (inline)")
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// repoLayer returns the layer of a repo package, or false.
func repoLayer(pkg string) (string, bool) {
	i := strings.Index(pkg, repoPrefix)
	if i < 0 {
		return "", false
	}
	rest := pkg[i+len(repoPrefix):]
	return rest[strings.LastIndex(rest, "/")+1:], true
}

// isTransport reports whether pkg belongs to the HTTP and network stack.
func isTransport(pkg string) bool {
	return pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "crypto/tls") ||
		strings.HasPrefix(pkg, "vendor/golang.org/x/net/")
}

// isRuntime reports whether pkg is part of the Go runtime proper.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// attribute returns the layer a stack (innermost frame first) is charged to.
func attribute(stack []string) string {
	pkgs := make([]string, len(stack))
	for i, fn := range stack {
		pkgs[i] = funcPackage(fn)
		if layer, ok := repoLayer(pkgs[i]); ok {
			return layer
		}
	}
	onlyRuntime := len(pkgs) > 0
	for _, pkg := range pkgs {
		if isTransport(pkg) {
			return layerTransport
		}
		if !isRuntime(pkg) {
			onlyRuntime = false
		}
	}
	if onlyRuntime {
		return layerRuntime
	}
	return layerUnattributed
}

// cpuSample is one stack of a CPU profile and the time sampled on it.
type cpuSample struct {
	value time.Duration
	stack []string // innermost frame first
}

// parseTraces reads the text of `go tool pprof -traces` for a CPU profile:
// blocks separated by "-----------+----" rules, each a (label lines and a)
// value line "<duration>   <innermost function>" followed by the callers.
func parseTraces(r io.Reader) ([]cpuSample, error) {
	var out []cpuSample
	var cur *cpuSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBlocks = true
			if cur != nil {
				out = append(out, *cur)
				cur = nil
			}
			continue
		}
		trimmed := strings.TrimSpace(line)
		if !inBlocks || trimmed == "" {
			continue
		}
		if cur != nil {
			cur.stack = append(cur.stack, trimmed)
			continue
		}
		first, rest, ok := strings.Cut(trimmed, " ")
		if !ok {
			continue // a label line
		}
		d, err := time.ParseDuration(first)
		if err != nil {
			continue // a label line ("key:value")
		}
		cur = &cpuSample{value: d, stack: []string{strings.TrimSpace(rest)}}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading pprof traces: %w", err)
	}
	return out, nil
}

// cpuByLayer sums CPU samples per layer.
func cpuByLayer(samples []cpuSample) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range samples {
		out[attribute(s.stack)] += s.value
	}
	return out
}

// profileTraces runs `go tool pprof -traces` on a CPU profile and parses
// its output. The tool reads symbol names from the profile itself.
func profileTraces(path string) ([]cpuSample, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(bytes.NewReader(out))
}

// allocRecord is one allocation-profile stack's sampled totals.
type allocRecord struct {
	objects, bytes int64
}

// allocSnapshot is the cumulative sampled allocation profile by stack.
type allocSnapshot map[[32]uintptr]allocRecord

// snapAllocs returns the current allocation profile. Two collections
// first publish the allocations made since the last cycle.
func snapAllocs() allocSnapshot {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		snap[r.Stack0] = allocRecord{objects: r.AllocObjects, bytes: r.AllocBytes}
	}
	return snap
}

// allocsByLayer estimates, per layer, the objects allocated between two
// snapshots taken at the given sampling rate. Sampled counts are scaled
// the way pprof scales heap samples.
func allocsByLayer(before, after allocSnapshot, rate int) map[string]float64 {
	out := map[string]float64{}
	for stack, a := range after {
		b := before[stack]
		objs, size := a.objects-b.objects, a.bytes-b.bytes
		if objs <= 0 || size <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(size)/float64(objs)/float64(rate)))
		}
		out[attribute(symbolize(stack))] += float64(objs) * scale
	}
	return out
}

// scaleAllocs scales per-layer allocation estimates so they sum to the
// exact allocation count. The profile cannot see tiny allocations (under
// 16 bytes and pointer-free) that share a block already sampled, so its
// raw total falls short of the malloc count; each layer is scaled by the
// same factor. It also returns the unscaled total.
func scaleAllocs(est map[string]float64, mallocs uint64) (map[string]float64, float64) {
	var total float64
	for _, v := range est {
		total += v
	}
	f := ratio(float64(mallocs), total)
	out := make(map[string]float64, len(est))
	for l, v := range est {
		out[l] = v * f
	}
	return out, total
}

// allocCounts returns the process's cumulative heap allocations the
// allocation profile can sample (tiny blocks counted once) and the tiny
// allocations packed into those blocks.
func allocCounts() (sampled, tiny uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// symbolize turns a recorded stack into function names, innermost first.
func symbolize(stack [32]uintptr) []string {
	n := 0
	for n < len(stack) && stack[n] != 0 {
		n++
	}
	var names []string
	frames := runtime.CallersFrames(stack[:n])
	for {
		f, more := frames.Next()
		if f.Function != "" {
			names = append(names, f.Function)
		}
		if !more {
			return names
		}
	}
}
