package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// A stall in one request must be charged to every request queued
// behind it: latency counts from the due time, not from the send.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const rate = 200.0 // one request due every 5ms
	var calls atomic.Int64
	lat, late := &latencies{}, &latencies{}
	openLoop(rate, 100*time.Millisecond, 1, func(k int) error {
		calls.Add(1)
		if k == 2 {
			time.Sleep(60 * time.Millisecond)
		}
		return nil
	}, lat, late)
	if calls.Load() != 20 {
		t.Fatalf("sent %d requests, want 20", calls.Load())
	}
	// Request 3 was due 5ms after request 2 but could only be sent
	// after the 60ms stall: its latency is ~55ms though its send took
	// no time at all.
	if got := lat.ms[3]; got < 45 {
		t.Errorf("request 3 latency %.1fms, want >= 45ms (stall charged from due time)", got)
	}
	if got := late.ms[3]; got < 45 {
		t.Errorf("request 3 sent %.1fms late, want >= 45ms", got)
	}
	if got := lat.ms[0]; got > 40 {
		t.Errorf("request 0 latency %.1fms; nothing delayed it", got)
	}
}

func TestClosedLoopRunsEachClientUntilDeadline(t *testing.T) {
	var n [2]atomic.Int64
	elapsed := closedLoop(2, 30*time.Millisecond, func(c, k int) {
		if int64(k) != n[c].Load() {
			t.Errorf("client %d got request number %d after %d", c, k, n[c].Load())
		}
		n[c].Add(1)
		time.Sleep(time.Millisecond)
	})
	if elapsed < 30*time.Millisecond || n[0].Load() == 0 || n[1].Load() == 0 {
		t.Errorf("elapsed %v, requests %d and %d", elapsed, n[0].Load(), n[1].Load())
	}
}

func TestClosedLoopNSendsExactly(t *testing.T) {
	var n atomic.Int64
	closedLoopN(3, 7, func(c, k int) { n.Add(1) })
	if n.Load() != 21 {
		t.Errorf("3 clients x 7 requests sent %d", n.Load())
	}
}
