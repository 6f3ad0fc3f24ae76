package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0 && tc.n-nearestRank(p, tc.n) < 10 {
			t.Errorf("n=%d: p%v leaves fewer than ten samples beyond it", tc.n, p)
		}
	}
}

func TestSummaryStatesTailAndSampleCount(t *testing.T) {
	l := &latencies{}
	for i := 1; i <= 100; i++ {
		l.ok(time.Duration(i) * time.Millisecond)
	}
	s := l.summary()
	for _, want := range []string{"p50=50.000ms", "p90=90.000ms", "n=100", "failed=0"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q lacks %q", s, want)
		}
	}
}

func TestFailuresCountAndMissEveryLimit(t *testing.T) {
	l := &latencies{}
	for i := 0; i < 8; i++ {
		l.record(time.Millisecond, nil)
	}
	l.record(time.Millisecond, errors.New("refused"))
	l.record(0, errors.New("timed out"))
	rep := newReport()
	rep.count(l)
	if rep.attempted != 10 || rep.failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 10 and 2", rep.attempted, rep.failed)
	}
	if got := l.percentile(50); got != 1 {
		t.Errorf("p50 = %v, want 1ms", got)
	}
	// The two failures are the slowest outcomes: p90 and above miss.
	if got := l.percentile(90); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf (a failure)", got)
	}
	if got := finite(l.percentile(90)); got != math.MaxFloat32 {
		t.Errorf("finite(p90) = %v, want the largest float32", got)
	}
}
