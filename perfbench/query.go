package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipmgo/internal/profstore"
)

// The query workload's corpus and mix. 2000 preloaded jobs put the
// per-query merge over thousands of rollups, the scale at which the
// scatter-gather path's cost shows; the mix is read-heavy, and its 5%
// of writes advance the members' epochs so memoised answers cannot
// serve every read.
const (
	queryPreload = 2000
	pctAgg       = 40 // GET /agg?top=5
	pctRegress   = 15 // GET /regress tag vs tag
	pctJobs      = 15 // GET /jobs?sel=tag:T
	pctJob       = 25 // GET /job/{id}
	pctWrite     = 5  // POST /ingest of a new document

	// queryTail is the /agg percentile tail_ms reports: the untraced
	// half of a 10 s traced run completes about 30 /agg; the 75th
	// percentile is the highest with several beyond it.
	queryTail = 75
)

// queryOp is one operation of the mix.
type queryOp struct {
	class string // agg, regress, jobs, job, write
	path  string // for reads
}

// mixBlock holds the mix's exact proportions; each client runs blocks
// of it in seeded shuffled order, so every seed offers the same mix.
var mixBlock = func() []string {
	var b []string
	for _, c := range []struct {
		class string
		pct   int
	}{{"agg", pctAgg}, {"regress", pctRegress}, {"jobs", pctJobs}, {"job", pctJob}, {"write", pctWrite}} {
		for i := 0; i < c.pct/5; i++ {
			b = append(b, c.class)
		}
	}
	return b
}()

// queryMixer draws one client's operations.
type queryMixer struct {
	r     *rng
	ids   []string
	block []string
}

func newQueryMixer(seed int64, stream uint64, ids []string) *queryMixer {
	return &queryMixer{r: newRNG(seed, stream), ids: ids}
}

func (q *queryMixer) next() queryOp {
	if len(q.block) == 0 {
		q.block = append(q.block, mixBlock...)
		for i := len(q.block) - 1; i > 0; i-- {
			j := q.r.intn(i + 1)
			q.block[i], q.block[j] = q.block[j], q.block[i]
		}
	}
	class := q.block[0]
	q.block = q.block[1:]
	switch class {
	case "agg":
		return queryOp{class: class, path: "/agg?top=5"}
	case "regress":
		b := q.r.intn(numTags)
		h := (b + 1 + q.r.intn(numTags-1)) % numTags
		return queryOp{class: class, path: fmt.Sprintf("/regress?base=tag:%s&head=tag:%s", tagName(b), tagName(h))}
	case "jobs":
		return queryOp{class: class, path: "/jobs?sel=tag:" + tagName(q.r.intn(numTags))}
	case "job":
		return queryOp{class: class, path: "/job/" + q.ids[q.r.intn(len(q.ids))]}
	}
	return queryOp{class: "write"}
}

var queryClasses = []string{"agg", "regress", "jobs", "job", "write"}

// queryPhase is one measured closed-loop stretch.
type queryPhase struct {
	ph    *phase
	lat   map[string]*latencies
	done  int
	respB int64
	loopT time.Duration
}

// runQuery is the read path under a trickle of writes: scatter,
// decode, merge, aggregate and render dominate. Once the load stops,
// every member must answer /agg byte-identically to the single-node
// reference.
func runQuery(o options) (*report, error) {
	rep := newReport()
	sr, err := setUp(o, rep, func(sr *storeRun) error {
		if err := sr.postMany(0, queryPreload); err != nil {
			return err
		}
		// One /jobs parses every preloaded document once (the listing
		// needs each job's full profile), and one /agg per member fills
		// its rollup memo, as a running service's first queries would.
		if _, err := sr.lc.get("warmup", sr.fleet.urls[0]+"/jobs", 0); err != nil {
			return err
		}
		for _, u := range sr.fleet.urls {
			if _, err := sr.lc.get("warmup", u+"/agg?top=5", 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer sr.close()
	// Acknowledgement order varies run to run; sorted, the ids a seed's
	// /job requests pick do not.
	ids := make([]string, len(sr.acked))
	for i, d := range sr.acked {
		ids[i] = d.id
	}
	sort.Strings(ids)

	var opSeq atomic.Int64
	measure := func(dur time.Duration, stream int) *queryPhase {
		qp := &queryPhase{lat: map[string]*latencies{}}
		for _, c := range queryClasses {
			qp.lat[c] = &latencies{}
		}
		var mu sync.Mutex
		mixers := make([]*queryMixer, o.clients)
		bufs := make([][]byte, o.clients)
		writes := make([]int, o.clients)
		for c := range mixers {
			mixers[c] = newQueryMixer(o.seed, uint64(100+stream+c), ids)
		}
		qp.ph = beginPhase()
		qp.loopT = closedLoop(o.clients, dur, func(c, k int) {
			op := mixers[c].next()
			m := (c + k) % fleetMembers
			var d time.Duration
			var n int
			var err error
			if op.class == "write" {
				d, err = sr.post(stream+c, writes[c], m, &bufs[c])
				writes[c]++
			} else {
				start := time.Now()
				var body []byte
				body, err = sr.lc.get("client."+op.class, sr.fleet.urls[m]+op.path, int(opSeq.Add(1)))
				d, n = time.Since(start), len(body)
			}
			qp.lat[op.class].record(d, err)
			if err == nil {
				mu.Lock()
				qp.done++
				qp.respB += int64(n)
				mu.Unlock()
			}
		})
		qp.ph.end()
		for _, c := range queryClasses {
			rep.count(qp.lat[c])
			logf("query: %-7s %s", c, qp.lat[c].summary())
		}
		logf("query: %d ops done in %v (%.1f ops/s)", qp.done, qp.loopT, float64(qp.done)/qp.loopT.Seconds())
		return qp
	}
	ops := func(qp *queryPhase) float64 { return float64(qp.done) / qp.loopT.Seconds() }

	if !o.trace {
		qp := measure(o.seconds, 20)
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		rep.metrics["ops_per_s"] = ops(qp)
		rep.metrics["mb_per_s"] = float64(qp.respB) / 1e6 / qp.loopT.Seconds()
		rep.metrics["p50_ms"] = finite(qp.lat["agg"].percentile(50))
		var attempts int
		for _, l := range qp.lat {
			attempts += l.attempts
		}
		rep.metrics["alloc_mb_per_op"] = qp.ph.rt.allocBytes / 1e6 / float64(attempts)
		return rep, sr.checkAggs(rep)
	}

	qpA := measure(o.seconds/4, 20)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	sr.tr.on.Store(true)
	qpB := measure(o.seconds/2, 30)
	sr.tr.on.Store(false)
	if err := prof.stop(rep); err != nil {
		return nil, err
	}
	qpC := measure(o.seconds/4, 40)
	rep.metrics["trace.overhead_frac"] = traceOverhead(1/ops(qpB), 1/ops(qpA), 1/ops(qpC))
	lat := func(class string) *latencies { return merged(qpA.lat[class], qpC.lat[class]) }
	rep.metrics["tail_ms"] = finite(lat("agg").percentile(queryTail))
	rep.metrics["agg_p50_ms"] = finite(lat("agg").percentile(50))
	rep.metrics["agg_p90_ms"] = finite(lat("agg").percentile(90))
	rep.metrics["regress_p50_ms"] = finite(lat("regress").percentile(50))
	rep.metrics["jobs_p50_ms"] = finite(lat("jobs").percentile(50))
	rep.metrics["job_p50_ms"] = finite(lat("job").percentile(50))
	rep.metrics["write_p90_ms"] = finite(lat("write").percentile(90))
	runtimeMetrics(rep, qpA.ph, qpC.ph)
	if err := sr.storeLayers(rep, qpB.lat["write"].attempts); err != nil {
		return nil, err
	}
	if err := sr.replayQuery(rep); err != nil {
		return nil, err
	}
	return rep, sr.checkAggs(rep)
}

// replayQuery re-runs the read path's public functions on what the
// traced run left in the members: each member's wire rollups are
// encoded and decoded, merged, aggregated, compared tag against tag and
// rendered, and a sample of documents is parsed lazily. Each step's
// time is the median of three repetitions.
func (sr *storeRun) replayQuery(rep *report) error {
	var wires [][]profstore.WireJob
	for _, m := range sr.fleet.members {
		wires = append(wires, m.store.WireJobs())
	}
	steps := map[string][]float64{}
	timeIt := func(name string, f func() error) error {
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		steps[name] = append(steps[name], ms(time.Since(t0)))
		return nil
	}
	docs := sr.sampleDocs(100)
	for r := 0; r < 3; r++ {
		encoded := make([][]byte, len(wires))
		decoded := make([][]profstore.WireJob, len(wires))
		var merged []*profstore.Job
		var agg *profstore.AggReport
		replay := []struct {
			name string
			f    func() error
		}{
			{"wire_encode_ms", func() (err error) {
				for i, w := range wires {
					if encoded[i], err = profstore.EncodeWireJobs(w); err != nil {
						return err
					}
				}
				return nil
			}},
			{"wire_decode_ms", func() (err error) {
				for i, e := range encoded {
					if decoded[i], err = profstore.DecodeWireJobs(e); err != nil {
						return err
					}
				}
				return nil
			}},
			{"merge_ms", func() error { merged = profstore.MergeWireJobs(decoded...); return nil }},
			{"aggregate_ms", func() error {
				agg = profstore.AggregateJobs(merged, profstore.AggOptions{TopN: 5})
				return nil
			}},
			{"regress_ms", func() error {
				profstore.RegressJobs(profstore.FilterJobs(merged, "tag:b0"), profstore.FilterJobs(merged, "tag:b1"),
					profstore.RegressOptions{Base: "tag:b0", Head: "tag:b1"})
				return nil
			}},
			{"render_json_ms", func() error {
				enc := json.NewEncoder(&bytes.Buffer{})
				enc.SetIndent("", "  ")
				return enc.Encode(agg)
			}},
			{"render_html_ms", func() error { profstore.WriteAggHTML(httptest.NewRecorder(), agg); return nil }},
		}
		for _, step := range replay {
			if err := timeIt(step.name, step.f); err != nil {
				return err
			}
		}
		st := profstore.New()
		jobs := make([]*profstore.Job, 0, len(docs))
		for _, d := range docs {
			j, err := st.Ingest(d, "", nil)
			if err != nil {
				return err
			}
			jobs = append(jobs, j)
		}
		if err := timeIt("lazy_parse_ms", func() error {
			for _, j := range jobs {
				j.Profile()
			}
			return nil
		}); err != nil {
			return err
		}
	}
	// Encode and decode are per member payload, lazy parse per job.
	per := map[string]float64{"wire_encode_ms": float64(len(wires)), "wire_decode_ms": float64(len(wires)), "lazy_parse_ms": float64(len(docs))}
	for name, v := range steps {
		d := 1.0
		if n, ok := per[name]; ok {
			d = n
		}
		rep.metrics["profstore."+name] = median(v) / d
	}
	return nil
}
