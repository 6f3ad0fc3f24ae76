// Command perfbench is the repository benchmark: it runs one named
// workload over the simulator, the monitor and the sharded profile
// store, checks the outputs, and prints every metric BENCHMARK.json
// names as the last line of standard output.
//
//	perfbench --workload simulate|ingest|query --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures with no instrumentation and prints the end-to-end
// metrics. --trace 1 splits the measured time into an untraced quarter,
// a traced half (timing wrappers and a CPU profile on) and an untraced
// quarter, and prints the per-layer metrics, including the tracing
// overhead between them.
// Run it from the repository root (perfbench/run.sh builds it there).
// The members' WALs and the traced run's spans go under --out, the
// directory run.sh builds into.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// options are the parsed command line plus the derived load shape.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	clients int    // load-generator clients: nproc, at most 8
	work    string // scratch directory inside the checkout
	spans   string // where the traced run writes its spans
}

// report is what a workload hands back: operations attempted and
// failed, failed checks, and metric values by name.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// check records a correctness check; a failed one fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) count(l *latencies) {
	l.mu.Lock()
	r.attempted += l.attempts
	r.failed += l.failed
	l.mu.Unlock()
}

// workloadFuncs maps a workload name to its runner.
var workloadFuncs = map[string]func(options) (*report, error){
	"simulate": runSimulate,
	"ingest":   runIngest,
	"query":    runQuery,
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// metric names and units it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: simulate, ingest or query")
	seed := flag.Int64("seed", 1, "seed every generated input is drawn from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for the run's scratch files and spans")
	flag.Parse()

	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		logf("perfbench: %v", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		logf("perfbench: BENCHMARK.json: %v", err)
		return 2
	}
	fn, ok := workloadFuncs[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("perfbench: usage: --workload simulate|ingest|query --seed N --seconds S --trace 0|1")
		return 2
	}
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		clients: min(runtime.NumCPU(), 8),
		work:    filepath.Join(*outDir, "perfbench", fmt.Sprintf("run-%d", os.Getpid())),
	}
	opts.spans = filepath.Join(*outDir, "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", *workload, *seed))
	defer os.RemoveAll(opts.work)
	logf("perfbench: workload=%s seed=%d seconds=%v trace=%v GOMAXPROCS=%d clients=%d",
		*workload, opts.seed, opts.seconds, opts.trace, runtime.GOMAXPROCS(0), opts.clients)

	rep, err := fn(opts)
	if err != nil {
		logf("perfbench: %s: %v", *workload, err)
		return 1
	}
	want := spec.EndToEnd
	if opts.trace {
		want = spec.PerLayer
	}
	out := map[string]any{}
	for _, m := range want {
		v, ok := rep.metrics[m.Name]
		switch {
		case !ok && opts.trace:
			// A layer the workload does not reach reads 0.
			logf("perfbench: %s does not exercise %s", *workload, m.Name)
		case !ok:
			logf("perfbench: %s did not produce metric %q", *workload, m.Name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			logf("perfbench: metric %q is %v", m.Name, v)
			return 1
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	for _, f := range rep.failures {
		logf("perfbench: CHECK FAILED: %s", f)
	}
	if rep.attempted < 1 {
		logf("perfbench: no operation was attempted")
		return 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.failures) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	fmt.Println(string(line))
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

// phase is one measured stretch of a workload, with the Go runtime's
// counters differenced across it.
type phase struct {
	start   time.Time
	rt0     runtimeStats
	elapsed time.Duration
	rt      runtimeStats
}

func beginPhase() *phase {
	runtime.GC()
	return &phase{start: time.Now(), rt0: readRuntime()}
}

func (p *phase) end() {
	p.elapsed = time.Since(p.start)
	p.rt = readRuntime().sub(p.rt0)
}

// profiler takes the traced phase's CPU profile.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and records each profiled package's share.
func (p *profiler) stop(rep *report) error {
	pprof.StopCPUProfile()
	shares, err := cpuShares(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	for _, pkg := range profiledPackages {
		rep.metrics["cpu."+pkg+"_share"] = shares[pkg]
	}
	pkgs := make([]string, 0, len(shares))
	for pkg := range shares {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return shares[pkgs[i]] > shares[pkgs[j]] })
	var parts []string
	for _, pkg := range pkgs {
		parts = append(parts, fmt.Sprintf("%s=%.3f", pkg, shares[pkg]))
	}
	logf("cpu: %s", strings.Join(parts, " "))
	return nil
}

// runtimeMetrics records the Go runtime's share of the untraced
// stretches of a traced run.
func runtimeMetrics(rep *report, phases ...*phase) {
	var rt runtimeStats
	for _, p := range phases {
		rt.gcCycles += p.rt.gcCycles
		rt.gcCPU += p.rt.gcCPU
		rt.totalCPU += p.rt.totalCPU
	}
	rep.metrics["runtime.gc_cycles"] = rt.gcCycles
	rep.metrics["runtime.gc_cpu_frac"] = 0
	if rt.totalCPU > 0 {
		rep.metrics["runtime.gc_cpu_frac"] = rt.gcCPU / rt.totalCPU
	}
}

// traceOverhead compares the traced stretch's cost per operation with
// the mean of the untraced stretches run before and after it, so drift
// across the run cancels.
func traceOverhead(traced, before, after float64) float64 {
	return traced/((before+after)/2) - 1
}

// setupRepeats is how many times a run builds its set-up; setup_s is
// the median.
const setupRepeats = 3
