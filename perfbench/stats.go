package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// latencies collects one operation class's outcomes. A failed or
// refused operation is kept as +Inf: it misses every latency limit, so
// it pushes every percentile it reaches past any bound.
type latencies struct {
	mu       sync.Mutex
	ms       []float64
	attempts int
	failed   int
}

func (l *latencies) ok(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.attempts++
	l.mu.Unlock()
}

func (l *latencies) fail() {
	l.mu.Lock()
	l.ms = append(l.ms, math.Inf(1))
	l.attempts++
	l.failed++
	l.mu.Unlock()
}

// merged pools the samples of several stretches.
func merged(ls ...*latencies) *latencies {
	out := &latencies{}
	for _, l := range ls {
		l.mu.Lock()
		out.ms = append(out.ms, l.ms...)
		out.attempts += l.attempts
		out.failed += l.failed
		l.mu.Unlock()
	}
	return out
}

// record files one outcome: its latency, or a failure.
func (l *latencies) record(d time.Duration, err error) {
	if err != nil {
		l.fail()
		return
	}
	l.ok(d)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100),
// or 0 with no samples.
func (l *latencies) percentile(p float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return percentileOf(l.ms, p)
}

func percentileOf(ms []float64, p float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return s[max(1, nearestRank(p, len(s)))-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n
// sorted samples.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest ladder percentile with at least ten
// samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// summary renders "p50=… p<tail>=… n=… failed=…" for the log lines.
func (l *latencies) summary() string {
	l.mu.Lock()
	n, failed := len(l.ms), l.failed
	l.mu.Unlock()
	var b strings.Builder
	b.WriteString("p50=" + fmtMS(l.percentile(50)))
	if p := tailPercentile(n); p > 50 {
		b.WriteString(" p" + strconv.FormatFloat(p, 'f', -1, 64) + "=" + fmtMS(l.percentile(p)))
	}
	b.WriteString(" n=" + strconv.Itoa(n) + " failed=" + strconv.Itoa(failed))
	return b.String()
}

func fmtMS(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) + "ms" }

// finite maps +Inf (a percentile reached by failures) to the largest
// float32: JSON has no infinity, and the value must still read as a
// missed limit.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat32
	}
	return v
}

// median of a small sample (set-up repetitions, replay repetitions).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runtimeStats is a snapshot of the Go runtime counters the benchmark
// differences across a measured phase.
type runtimeStats struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
