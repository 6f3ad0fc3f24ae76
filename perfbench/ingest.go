package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ipmgo/internal/profstore"
	"ipmgo/internal/storecluster"
)

// The ingest workload's load shape. The open-loop rate is fixed, not
// derived from the machine, so two commits see the same offered load.
// It is about a quarter of what two closed-loop clients sustain on a
// 2-core machine: queueing shows, and the backlog does not grow even
// through stretches where the machine slows down. The closed loop posts
// a fixed number of documents, about what the rest of the measured time
// holds on that machine: it measures capacity, and as every
// acknowledged document stays in the members' memory, a fixed count
// keeps the run's memory the same on any machine. The two alternate in
// short stretches, so both sample the whole run: a virtual disk's
// fsync rate can halve for seconds at a time. The open loop gets less
// of the time: its median settles within 1800 requests, while the
// closed-loop rate of one sub-second stretch varies by about 15% and
// needs the longer sum.
const (
	ingestOpenRate  = 600.0 // documents per second
	ingestOpenShare = 0.3   // of the measured time
	ingestClosedPer = 1100  // closed-loop documents per remaining measured second
	ingestCycles    = 5     // open and closed stretches alternate this often
	ingestWarmup    = 60    // documents posted during set-up

	// ingestTail is the open-loop percentile tail_ms reports: the
	// untraced half of a 10 s traced run sends 900 requests on
	// schedule, 18 of them beyond the 98th.
	ingestTail = 98
)

// storeRun is the state the ingest and query workloads share: the
// corpus, the cluster, the load client and every acknowledged document.
type storeRun struct {
	o      options
	corpus *corpus
	fleet  *fleet
	lc     *loadClient
	tr     *tracer

	mu     sync.Mutex
	acked  []ackedDoc
	ackedB int64
}

// setUp builds the corpus and the cluster and runs warm up, setupRepeats
// times; the last build is kept. It records setup_s as the median.
func setUp(o options, rep *report, warm func(*storeRun) error) (*storeRun, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setups []float64
	var sr *storeRun
	for r := 0; r < setupRepeats; r++ {
		if sr != nil {
			sr.close()
		}
		t0 := time.Now()
		c, err := newCorpus(o.seed)
		if err != nil {
			return nil, err
		}
		f, err := startFleet(filepath.Join(o.work, fmt.Sprint("fleet", r)), tr)
		if err != nil {
			return nil, err
		}
		sr = &storeRun{o: o, corpus: c, fleet: f, lc: newLoadClient(f, o.clients, tr), tr: tr}
		if err := warm(sr); err != nil {
			sr.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.metrics["setup_s"] = median(setups)
	logf("setup: %.3fs median of %v", median(setups), setups)
	return sr, nil
}

func (sr *storeRun) close() {
	sr.lc.close()
	if err := sr.fleet.close(); err != nil {
		logf("closing cluster: %v", err)
	}
	os.RemoveAll(sr.fleet.dir)
}

// post renders document k of a stream into buf, posts it to member m
// and records the acknowledgement.
func (sr *storeRun) post(stream, k, m int, buf *[]byte) (time.Duration, error) {
	ref := sr.corpus.draw(stream, k)
	*buf = sr.corpus.render(ref, *buf)
	id := profstore.DeriveID(*buf)
	start := time.Now()
	err := sr.lc.post(m, *buf, id, tagName(ref.Tag))
	d := time.Since(start)
	if err == nil {
		sr.ack(ref, id, len(*buf))
	}
	return d, err
}

func (sr *storeRun) ack(ref docRef, id string, n int) {
	sr.mu.Lock()
	sr.acked = append(sr.acked, ackedDoc{ref: ref, id: id})
	sr.ackedB += int64(n)
	sr.mu.Unlock()
}

// postMany posts documents 0..n-1 of a stream from the load clients,
// round-robin over the members.
func (sr *storeRun) postMany(stream, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, sr.o.clients)
	for c := 0; c < sr.o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []byte
			for k := c; k < n && errs[c] == nil; k += sr.o.clients {
				_, errs[c] = sr.post(stream, k, k%fleetMembers, &buf)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkAcked requires every acknowledged job to be held by each of
// its owners, reads a sample of them back over HTTP through members
// that mostly do not own them, and compares every member's /agg with a
// single-node store fed the same documents.
func (sr *storeRun) checkAcked(rep *report) error {
	t0 := time.Now()
	ring, err := storecluster.NewRing(sr.fleet.urls)
	if err != nil {
		return err
	}
	index := map[string]int{}
	for i, u := range sr.fleet.urls {
		index[u] = i
	}
	missing := 0
	for _, d := range sr.acked {
		for _, owner := range ring.Owners(d.id, fleetReplicas) {
			if sr.fleet.members[index[owner]].store.Get(d.id) == nil {
				missing++
			}
		}
	}
	rep.check(missing == 0, "%d acked job replicas missing from their owners", missing)
	step := max(1, len(sr.acked)/readBackSample)
	read := 0
	for i := 0; i < len(sr.acked); i += step {
		url := fmt.Sprintf("%s/job/%s", sr.fleet.urls[i%fleetMembers], sr.acked[i].id)
		_, err := sr.lc.get("check", url, 0)
		rep.check(err == nil, "acked job %s unreadable: %v", sr.acked[i].id, err)
		read++
	}
	logf("check: %d acked jobs on all %d owners, %d read back over HTTP in %v",
		len(sr.acked), fleetReplicas, read, time.Since(t0))
	return sr.checkAggs(rep)
}

// readBackSample is how many acknowledged jobs the ingest check reads
// back over HTTP; every one is checked in its owners' stores.
const readBackSample = 200

// ingestPhase is one open-loop plus closed-loop stretch.
type ingestPhase struct {
	ph                 *phase
	open, late, closed *latencies
	closedT            time.Duration
	closedN            int
	closedB            int64
	rates, mbRates     []float64 // closed-loop docs/s and MB/s of each stretch
}

// runIngest is the write path alone: route, forward, replicate, scan,
// WAL append and fsync. Nothing scatters.
func runIngest(o options) (*report, error) {
	rep := newReport()
	sr, err := setUp(o, rep, func(sr *storeRun) error { return sr.postMany(0, ingestWarmup) })
	if err != nil {
		return nil, err
	}
	defer sr.close()

	measure := func(dur time.Duration, streams int) *ingestPhase {
		ip := &ingestPhase{open: &latencies{}, late: &latencies{}, closed: &latencies{}}
		// The open loop's documents are rendered before it starts, so
		// the schedule charges only the post.
		openDur := time.Duration(float64(dur) * ingestOpenShare / ingestCycles)
		perCycle := int(ingestOpenRate * openDur.Seconds())
		n := perCycle * ingestCycles
		docs := make([][]byte, n)
		refs := make([]docRef, n)
		ids := make([]string, n)
		for k := range docs {
			refs[k] = sr.corpus.draw(streams, k)
			docs[k] = sr.corpus.render(refs[k], nil)
			ids[k] = profstore.DeriveID(docs[k])
		}
		var mu sync.Mutex
		bufs := make([][]byte, o.clients)
		closedPer := int(ingestClosedPer*dur.Seconds()*(1-ingestOpenShare)) / o.clients / ingestCycles
		ip.ph = beginPhase()
		for cycle := 0; cycle < ingestCycles; cycle++ {
			first := cycle * perCycle
			openLoop(ingestOpenRate, openDur, o.clients, func(k int) error {
				k += first
				err := sr.lc.post(k%fleetMembers, docs[k], ids[k], tagName(refs[k].Tag))
				if err == nil {
					sr.ack(refs[k], ids[k], len(docs[k]))
				}
				return err
			}, ip.open, ip.late)
			n0, b0 := ip.closedN, ip.closedB
			t := closedLoopN(o.clients, closedPer, func(c, k int) {
				k += cycle * closedPer
				d, err := sr.post(streams+1+c, k, (c+k)%fleetMembers, &bufs[c])
				ip.closed.record(d, err)
				if err == nil {
					mu.Lock()
					ip.closedN++
					ip.closedB += int64(len(bufs[c]))
					mu.Unlock()
				}
			})
			ip.closedT += t
			ip.rates = append(ip.rates, float64(ip.closedN-n0)/t.Seconds())
			ip.mbRates = append(ip.mbRates, float64(ip.closedB-b0)/1e6/t.Seconds())
		}
		ip.ph.end()
		rep.count(ip.open)
		rep.count(ip.closed)
		logf("ingest: open loop %.0f/s: %s; generator late %s", ingestOpenRate, ip.open.summary(), ip.late.summary())
		logf("ingest: closed loop %d clients: %d acked in %v (%.0f docs/s, median stretch %.0f docs/s of %.0f); %s",
			o.clients, ip.closedN, ip.closedT, float64(ip.closedN)/ip.closedT.Seconds(), median(ip.rates), ip.rates, ip.closed.summary())
		return ip
	}
	ops := func(ip *ingestPhase) float64 { return float64(ip.closedN) / ip.closedT.Seconds() }

	if !o.trace {
		ip := measure(o.seconds, 1)
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		rep.metrics["ops_per_s"] = ops(ip)
		rep.metrics["mb_per_s"] = float64(ip.closedB) / 1e6 / ip.closedT.Seconds()
		rep.metrics["p50_ms"] = finite(ip.open.percentile(50))
		rep.metrics["alloc_mb_per_op"] = ip.ph.rt.allocBytes / 1e6 / float64(ip.open.attempts+ip.closed.attempts)
		return rep, sr.checkAcked(rep)
	}

	ipA := measure(o.seconds/4, 1)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	sr.tr.on.Store(true)
	ipB := measure(o.seconds/2, 10)
	sr.tr.on.Store(false)
	if err := prof.stop(rep); err != nil {
		return nil, err
	}
	ipC := measure(o.seconds/4, 20)
	rep.metrics["tail_ms"] = finite(merged(ipA.open, ipC.open).percentile(ingestTail))
	rep.metrics["trace.overhead_frac"] = traceOverhead(1/ops(ipB), 1/ops(ipA), 1/ops(ipC))
	rep.metrics["gen.late_ms"] = finite(merged(ipA.late, ipC.late).percentile(90))
	runtimeMetrics(rep, ipA.ph, ipC.ph)
	if err := sr.storeLayers(rep, ipB.open.attempts+ipB.closed.attempts); err != nil {
		return nil, err
	}
	if err := sr.replayIngest(rep); err != nil {
		return nil, err
	}
	return rep, sr.checkAcked(rep)
}

// storeLayers turns the traced phase's spans into the client, cluster
// and store per-layer metrics, writes the spans out, and records the
// size and disk metrics. writes is the number of ingests the traced
// phase attempted.
func (sr *storeRun) storeLayers(rep *report, writes int) error {
	spans := sr.tr.snapshot()
	link(spans)
	count := func(layers ...string) (n int, meanMS float64, bytes int64) {
		var total float64
		for _, l := range layers {
			ln, m, b := layerStats(spans, l)
			n += ln
			total += m * float64(ln)
			bytes += b
		}
		if n > 0 {
			meanMS = total / float64(n)
		}
		return n, meanMS, bytes
	}
	clientOps, _, _ := count("client.ingest", "client.agg", "client.regress", "client.jobs", "client.job")
	queries, _, _ := count("client.agg", "client.regress", "client.jobs")
	_, post, _ := count("client.ingest")
	peerN, _, _ := count("peer.ingest", "peer.rollups", "peer.jobs", "peer.job")
	_, peerIngest, _ := count("peer.ingest")
	_, scatter, scatterB := count("peer.rollups", "peer.jobs")
	_, forward, _ := count("peer.job")
	_, shard, _ := count("local.ingest")
	_, walWrite, walB := count("wal.write")
	fsyncs, fsync, _ := count("wal.fsync")

	st := sr.lc.posterStats()
	rep.metrics["profstore.post_ms"] = post
	rep.metrics["profstore.post_retries"] = float64(st.Retries)
	rep.metrics["profstore.post_failures"] = float64(st.Failures)
	rep.metrics["storecluster.peer_ingest_ms"] = peerIngest
	rep.metrics["storecluster.peer_requests_per_op"] = ratio(float64(peerN), float64(clientOps))
	rep.metrics["storecluster.scatter_ms"] = scatter
	rep.metrics["storecluster.scatter_bytes_per_query"] = ratio(float64(scatterB), float64(queries))
	rep.metrics["storecluster.forward_job_ms"] = forward
	rep.metrics["profstore.shard_ingest_ms"] = shard
	rep.metrics["profstore.wal_write_us"] = walWrite * 1000
	rep.metrics["profstore.fsync_us"] = fsync * 1000
	rep.metrics["profstore.fsyncs_per_op"] = ratio(float64(fsyncs), float64(writes))
	rep.metrics["profstore.wal_bytes_per_op"] = ratio(float64(walB), float64(writes))
	rep.metrics["disk_bytes_per_input_byte"] = ratio(float64(sr.fleet.diskBytes()), float64(sr.ackedB))
	rep.metrics["ipm.xml_kb"] = ratio(float64(sr.ackedB)/1024, float64(len(sr.acked)))
	rep.metrics["ipm.write_xml_ms"] = sr.corpus.writeMS
	return writeTrace(spans, sr.o.spans)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayIngest re-runs the write path's in-memory steps on documents
// the traced run posted: the content-hash id and the one-pass scan into
// an in-memory store.
func (sr *storeRun) replayIngest(rep *report) error {
	docs := sr.sampleDocs(300)
	var idRuns, scanRuns []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		for _, d := range docs {
			profstore.DeriveID(d)
		}
		idRuns = append(idRuns, float64(time.Since(t0).Microseconds())/float64(len(docs)))
		st := profstore.New()
		t0 = time.Now()
		for _, d := range docs {
			if _, err := st.Ingest(d, "", nil); err != nil {
				return fmt.Errorf("replay ingest: %w", err)
			}
		}
		scanRuns = append(scanRuns, float64(time.Since(t0).Microseconds())/float64(len(docs)))
	}
	rep.metrics["profstore.derive_id_us"] = median(idRuns)
	rep.metrics["profstore.scan_us"] = median(scanRuns)
	return nil
}

// sampleDocs re-renders up to n acknowledged documents, spread evenly
// over the acknowledgement order.
func (sr *storeRun) sampleDocs(n int) [][]byte {
	step := max(1, len(sr.acked)/n)
	var out [][]byte
	for i := 0; i < len(sr.acked) && len(out) < n; i += step {
		out = append(out, sr.corpus.render(sr.acked[i].ref, nil))
	}
	return out
}
