package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"ipmgo/internal/ipm"
)

// simulateWarmup are the deck entries the simulate set-up runs once:
// each application model at its smallest size on the first device,
// enough to fault in the simulator's code and heap, and the same shape
// for every seed so set-up time compares across seeds.
var simulateWarmup = []int{0 * 3, 8 * 3, 11 * 3, 13 * 3, 16 * 3}

// simulateSetupRepeats is how many times the simulate set-up runs. One
// set-up takes about 40 ms, so the median of the usual three spread
// 0.4 (interquartile range over median) across seeds; fifteen cost
// well under a second.
const simulateSetupRepeats = 15

// simulateTail is the job-latency percentile tail_ms reports: the
// untraced half of a 10 s traced run completes about 110 jobs, 11 of
// them beyond the 90th percentile.
const simulateTail = 90

// simPass is one pass over the deck.
type simPass struct {
	digest  string // sha256 over every XML document, in deck order
	jobs    int
	xmlB    int64
	runNS   int64 // summed host time in cluster.Run
	writeNS int64 // summed host time in ipm.WriteXML
	calls   int64 // summed monitored calls over every domain
	virtNS  int64 // summed virtual wallclock of the jobs
}

// runSimulate is the simulator and monitor alone: one client runs the
// seed's deck of monitored jobs through cluster.Run and ipm.WriteXML,
// pass after pass, until the measured time is used up. Whole passes
// only, so every run measures the same mix.
func runSimulate(o options) (*report, error) {
	rep := newReport()
	var setups []float64
	var jobs []jobSpec
	for r := 0; r < simulateSetupRepeats; r++ {
		t0 := time.Now()
		jobs = deck(o.seed)
		for _, i := range simulateWarmup {
			if _, err := simulate(jobs[i], false); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.metrics["setup_s"] = median(setups)
	logf("setup: %.4fs median of %d", median(setups), len(setups))

	measure := func(dur time.Duration, tr *tracer) (*phase, []simPass, *latencies) {
		lat := &latencies{}
		var passes []simPass
		ph := beginPhase()
		op := 0
		for len(passes) == 0 || time.Since(ph.start) < dur {
			h := sha256.New()
			var p simPass
			for _, js := range jobs {
				start := time.Now()
				s, err := simulate(js, false)
				if err != nil {
					// Counted against the attempts, and a failed check: the
					// simulator is deterministic, so a job kind that fails
					// would fail the same way in every pass and leave the
					// digests in agreement.
					rep.check(false, "simulate: %v", err)
					lat.fail()
					continue
				}
				lat.ok(time.Since(start))
				if tr.active() {
					key := fmt.Sprint("job:", op)
					t1 := start.Add(time.Duration(s.runNS))
					tr.add("client.job", -1, 0, key, start, int64(len(s.xml)))
					tr.record("sim.cluster_run", -1, 0, key, start, t1, 0)
					tr.record("sim.write_xml", -1, 0, key, t1, t1.Add(time.Duration(s.writeNS)), int64(len(s.xml)))
				}
				op++
				h.Write(s.xml)
				p.jobs++
				p.xmlB += int64(len(s.xml))
				p.runNS += s.runNS
				p.writeNS += s.writeNS
				p.virtNS += s.profile.Wallclock().Nanoseconds()
				for d := ipm.DomainOther; d < ipm.DomainPseudo; d++ { // host calls; pseudo entries are derived
					p.calls += s.profile.CallCounts(d)
				}
			}
			p.digest = hex.EncodeToString(h.Sum(nil))
			passes = append(passes, p)
		}
		ph.end()
		return ph, passes, lat
	}
	// Every pass of one seed's deck must render byte-identical logs.
	checkPasses := func(what string, passes []simPass, want string) string {
		if want == "" {
			want = passes[0].digest
		}
		for i, p := range passes {
			rep.check(p.digest == want, "%s pass %d: XML digest %s, want %s", what, i, p.digest, want)
			rep.check(p.jobs == len(jobs), "%s pass %d: %d of %d jobs completed", what, i, p.jobs, len(jobs))
		}
		return want
	}

	if !o.trace {
		ph, passes, lat := measure(o.seconds, nil)
		rep.count(lat)
		digest := checkPasses("untraced", passes, "")
		var jobsN int
		var xmlB int64
		for _, p := range passes {
			jobsN += p.jobs
			xmlB += p.xmlB
		}
		logf("simulate: %d passes of %d jobs in %v, digest %s", len(passes), len(jobs), ph.elapsed, digest)
		logf("simulate: job latency %s", lat.summary())
		rep.metrics["ops_per_s"] = float64(jobsN) / ph.elapsed.Seconds()
		rep.metrics["mb_per_s"] = float64(xmlB) / 1e6 / ph.elapsed.Seconds()
		rep.metrics["p50_ms"] = finite(lat.percentile(50))
		rep.metrics["alloc_mb_per_op"] = ph.rt.allocBytes / 1e6 / float64(jobsN)
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		return rep, nil
	}

	// Traced run: untraced, traced under a CPU profile, untraced again;
	// all three must produce the same XML digest.
	phA, passesA, latA := measure(o.seconds/4, nil)
	digest := checkPasses("untraced", passesA, "")
	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	phB, passesB, latB := measure(o.seconds/2, tr)
	tr.on.Store(false)
	if err := prof.stop(rep); err != nil {
		return nil, err
	}
	checkPasses("traced", passesB, digest)
	phC, passesC, latC := measure(o.seconds/4, nil)
	checkPasses("untraced", passesC, digest)
	for _, l := range []*latencies{latA, latB, latC} {
		rep.count(l)
	}
	logf("simulate: traced digest %s (untraced %s)", passesB[0].digest, digest)

	var p simPass
	for _, q := range passesB {
		p.jobs += q.jobs
		p.xmlB += q.xmlB
		p.runNS += q.runNS
		p.writeNS += q.writeNS
		p.calls += q.calls
		p.virtNS += q.virtNS
	}
	n := float64(p.jobs)
	rep.metrics["cluster.run_ms"] = float64(p.runNS) / 1e6 / n
	rep.metrics["cluster.host_ns_per_call"] = float64(p.runNS) / float64(p.calls)
	rep.metrics["cluster.virtual_s_per_host_s"] = float64(p.virtNS) / float64(p.runNS)
	rep.metrics["ipm.write_xml_ms"] = float64(p.writeNS) / 1e6 / n
	rep.metrics["ipm.xml_kb"] = float64(p.xmlB) / 1024 / n
	rep.metrics["tail_ms"] = finite(merged(latA, latC).percentile(simulateTail))
	perJob := func(ph *phase, l *latencies) float64 { return ph.elapsed.Seconds() / float64(l.attempts) }
	rep.metrics["trace.overhead_frac"] = traceOverhead(perJob(phB, latB), perJob(phA, latA), perJob(phC, latC))
	runtimeMetrics(rep, phA, phC)
	spans := tr.snapshot()
	link(spans)
	if err := writeTrace(spans, o.spans); err != nil {
		return nil, err
	}
	return rep, nil
}
