package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Layer: "client.agg", Member: -1, Key: "op:1", Start: 0, End: 100},
		{Layer: "route.agg", Member: 0, Key: "op:1", Start: 10, End: 90},
		{Layer: "peer.rollups", Member: 0, Peer: 1, Start: 20, End: 50},
		{Layer: "peer.rollups", Member: 0, Peer: 2, Start: 30, End: 60}, // overlaps its sibling
		{Layer: "shard.rollups", Member: 1, Start: 25, End: 45},
	}
	link(spans)
	for i, want := range []int{-1, 0, 1, 1, 2} {
		if spans[i].Parent != want {
			t.Errorf("span %d (%s) parent %d, want %d", i, spans[i].Layer, spans[i].Parent, want)
		}
	}
	lt := selfTimes(spans)
	for layer, want := range map[string]float64{"client.agg": 20, "route.agg": 40, "peer.rollups": 30 + 30 - 20, "shard.rollups": 20} {
		if got := lt[layer].SelfMS * 1e6; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s self %vns, want %vns", layer, got, want)
		}
	}
}

func TestCPUSharesFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if len(shares) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
}
