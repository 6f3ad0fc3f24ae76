package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoop sends requests on a fixed schedule regardless of how the
// system keeps up: request k is due at start + k/rate, for dur. Up to
// workers requests are in flight; a worker takes the next request,
// waits for its due time (not at all if it is already late) and sends
// it. Latency counts from the due time, so a stall also charges the
// wait it imposes on every request queued behind it; late records how
// far behind schedule each send started.
func openLoop(rate float64, dur time.Duration, workers int, send func(k int) error, lat, late *latencies) {
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late.ok(time.Since(due))
				err := send(k)
				lat.record(time.Since(due), err)
			}
		}()
	}
	wg.Wait()
}

// closedLoop runs clients that each send their next request only after
// the previous one completed, until dur has passed. op receives the
// client number and that client's request count; it records its own
// outcome. The elapsed time of the whole loop is returned.
func closedLoop(clients int, dur time.Duration, op func(client, k int)) time.Duration {
	deadline := time.Now().Add(dur)
	return runClients(clients, func(k int) bool { return time.Now().Before(deadline) }, op)
}

// closedLoopN is closedLoop for a fixed count: each client sends n
// requests.
func closedLoopN(clients, n int, op func(client, k int)) time.Duration {
	return runClients(clients, func(k int) bool { return k < n }, op)
}

func runClients(clients int, more func(k int) bool, op func(client, k int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; more(k); k++ {
				op(c, k)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}
