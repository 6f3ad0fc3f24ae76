package storecluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipmgo/internal/faultsim"
	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
)

// Cluster metric names.
const (
	MetricMembers     = "ipm_cluster_members"
	MetricReplicas    = "ipm_cluster_replicas"
	MetricPeerLatency = "ipm_peer_latency_ns"
	MetricPeerErrors  = "ipm_peer_errors_total"
	MetricPeerReqs    = "ipm_peer_requests_total"
	MetricForwards    = "ipm_cluster_ingest_forwards_total"
	MetricScatters    = "ipm_cluster_scatters_total"
	MetricQuorumFails = "ipm_cluster_quorum_failures_total"
)

// retryAfterSeconds mirrors the single-node 503 backoff hint.
const retryAfterSeconds = 5

// Config wires one ipmserve member into a cluster.
type Config struct {
	// Self is this member's base URL; must be one of Members.
	Self string
	// Members are all member base URLs, including Self. Order is
	// irrelevant (the ring canonicalises it).
	Members []string
	// Replicas is R, the number of members owning each job id. 0 means 2,
	// clamped to the member count. Writes ack at the majority quorum
	// (R/2+1).
	Replicas int
	// Store is this member's local profile store.
	Store *profstore.Store
	// Local is the single-node HTTP surface over Store
	// (profstore.Server.Handler()); the cluster handler intercepts the
	// routed endpoints and delegates everything else to it.
	Local http.Handler
	// Registry receives the cluster metrics; also used by Local for
	// /metrics.
	Registry *telemetry.Registry
	// Recorder, when non-nil, receives scatter-gather and forward spans
	// for the Chrome-trace export.
	Recorder *telemetry.Recorder
	// Transport overrides the peer HTTP transport (the faultsim.PeerPlan
	// seam); nil uses the shared pooled keep-alive transport.
	Transport http.RoundTripper
	// Timeout bounds one peer request; 0 means 10s.
	Timeout time.Duration
	// Retry is the per-peer retry schedule for forwarded ingest; the zero
	// value is the faultsim default (3 attempts, capped backoff).
	Retry faultsim.RetryPolicy
	// FanOut bounds concurrent peer requests per routed operation; 0
	// means 4.
	FanOut int
}

// primariesComplete reports whether every acknowledged job is held by
// its primary owner (Ring.Primary). That holds when the write quorum
// equals R — R/2+1 == R, so R ≤ 2 — because an ack then means every
// owner, the primary among them, holds the document. Reads then take the
// partial path: each member aggregates only the jobs it is primary for,
// a disjoint cover of the corpus, and ships one profstore.Partial per
// selector. With R ≥ 3 a write can ack without its primary, so reads
// keep the per-job wire path, merged and deduped by id at the router.
// That path goes once anti-entropy repairs replicas and so makes every
// primary complete.
func (cfg Config) primariesComplete() bool { return cfg.Replicas/2+1 == cfg.Replicas }

// Cluster is one member's router: it owns the ring, the peer clients
// and the scatter-gather query surface.
type Cluster struct {
	cfg     Config
	ring    *Ring
	peers   []string // canonical members minus self
	quorum  int
	client  *http.Client
	posters map[string]*profstore.Poster
	start   time.Time

	peerLat *telemetry.HistogramVec
	peerErr *telemetry.Vec
	peerReq *telemetry.Vec

	forwards    atomic.Int64
	scatters    atomic.Int64
	quorumFails atomic.Int64
}

// New validates the config and builds the member's router.
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Members)
	if err != nil {
		return nil, err
	}
	self := false
	for _, m := range ring.Members() {
		if m == cfg.Self {
			self = true
		}
	}
	if !self {
		return nil, fmt.Errorf("storecluster: self %q is not a cluster member %v", cfg.Self, ring.Members())
	}
	if cfg.Store == nil || cfg.Local == nil || cfg.Registry == nil {
		return nil, fmt.Errorf("storecluster: Store, Local and Registry are required")
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas < 1 || cfg.Replicas > ring.Len() {
		if cfg.Replicas > ring.Len() {
			cfg.Replicas = ring.Len()
		} else {
			return nil, fmt.Errorf("storecluster: replicas %d < 1", cfg.Replicas)
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.FanOut <= 0 {
		cfg.FanOut = 4
	}
	c := &Cluster{
		cfg:    cfg,
		ring:   ring,
		quorum: cfg.Replicas/2 + 1,
		client: &http.Client{
			Timeout:   cfg.Timeout,
			Transport: profstore.CountingTransport(cfg.Transport),
		},
		posters: make(map[string]*profstore.Poster),
		start:   time.Now(),
		peerLat: cfg.Registry.HistogramVec(MetricPeerLatency,
			"Peer request latency in nanoseconds, by peer base URL.",
			"peer", telemetry.ExpBuckets(1e5, 4, 10)),
		peerErr: cfg.Registry.CounterVec(MetricPeerErrors,
			"Peer requests that failed after retries, by peer base URL.", "peer"),
		peerReq: cfg.Registry.CounterVec(MetricPeerReqs,
			"Peer requests issued (before retries), by peer base URL.", "peer"),
	}
	for _, m := range ring.Members() {
		if m == cfg.Self {
			continue
		}
		c.peers = append(c.peers, m)
		// The /shard prefix keeps a forwarded ingest from being re-routed
		// by the receiving member (Poster appends nothing when the URL
		// already contains /ingest).
		c.posters[m] = &profstore.Poster{
			URL:    m + "/shard/ingest",
			Policy: cfg.Retry,
			Client: c.client,
		}
	}
	return c, nil
}

// Ring exposes the member's ring (for tests and the soak harness).
func (c *Cluster) Ring() *Ring { return c.ring }

// span records one cluster operation into the recorder, if any.
func (c *Cluster) span(track, name string, start time.Time, bytes int64) {
	if c.cfg.Recorder == nil {
		return
	}
	end := time.Now()
	c.cfg.Recorder.Record(telemetry.Span{
		Track: track, Name: name, Class: telemetry.ClassOther,
		Start: start.Sub(c.start), End: end.Sub(c.start), Bytes: bytes,
	})
}

// Handler returns the cluster route mux: routed /ingest, scatter-gather
// queries, the member-local /shard/* surface, and delegation to the
// single-node handler for everything else.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", c.handleIngest)
	mux.HandleFunc("GET /agg", c.handleAgg)
	mux.HandleFunc("GET /regress", c.handleRegress)
	mux.HandleFunc("GET /jobs", c.handleJobs)
	mux.HandleFunc("GET /job/{id}", c.handleJob)
	// The local-only shard surface. /shard/ingest and /shard/job/{id}
	// are path rewrites onto the single-node handler: same parsing, same
	// counters, same response bytes — just exempt from routing.
	mux.HandleFunc("GET /shard/rollups", c.handleShardRollups)
	mux.HandleFunc("GET /shard/jobs", c.handleShardJobs)
	mux.HandleFunc("POST /shard/ingest", c.rewriteLocal("/ingest"))
	mux.HandleFunc("GET /shard/job/{id}", func(w http.ResponseWriter, r *http.Request) {
		r2 := r.Clone(r.Context())
		r2.URL.Path = "/job/" + r.PathValue("id")
		c.cfg.Local.ServeHTTP(w, r2)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		c.publish()
		c.cfg.Local.ServeHTTP(w, r)
	})
	mux.Handle("/", c.cfg.Local)
	return mux
}

func (c *Cluster) rewriteLocal(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r2 := r.Clone(r.Context())
		r2.URL.Path = path
		c.cfg.Local.ServeHTTP(w, r2)
	}
}

// publish pushes the cluster counters into the registry (the Vec and
// HistogramVec families render themselves).
func (c *Cluster) publish() {
	var posts, retries, failures int64
	for _, p := range c.posters {
		st := p.Stats()
		posts += st.Posts
		retries += st.Retries
		failures += st.Failures
	}
	c.cfg.Registry.Publish("storecluster", []telemetry.Sample{
		{Name: MetricMembers, Help: "Cluster member count.", Type: "gauge", Value: float64(c.ring.Len())},
		{Name: MetricReplicas, Help: "Replication factor R.", Type: "gauge", Value: float64(c.cfg.Replicas)},
		{Name: MetricForwards, Help: "Ingest documents forwarded to peer owners.", Type: "counter", Value: float64(posts)},
		{Name: MetricScatters, Help: "Scatter-gather query fan-outs issued.", Type: "counter", Value: float64(c.scatters.Load())},
		{Name: MetricQuorumFails, Help: "Routed ingests that missed the write quorum.", Type: "counter", Value: float64(c.quorumFails.Load())},
		{Name: profstore.MetricIngestRetries, Help: "Ingest attempts beyond the first.", Type: "counter", Value: float64(retries)},
		{Name: profstore.MetricIngestFailures, Help: "Profiles that exhausted every ingest attempt.", Type: "counter", Value: float64(failures)},
		{Name: profstore.MetricIngestConnReuse, Help: "Requests on the shared transport served over a reused keep-alive connection.", Type: "counter", Value: float64(profstore.ConnReuseTotal())},
	})
}

// writeJSON mirrors the single-node renderer byte for byte: indented
// two-space JSON, trailing newline, application/json.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func fail(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func failUnavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	fail(w, http.StatusServiceUnavailable, format, args...)
}

// ---- routed ingest ----

// ownerResult is one owner's outcome for a routed ingest.
type ownerResult struct {
	owner  string
	body   []byte // successful IngestResponse bytes (peers), nil for self
	local  *profstore.Job
	status int // HTTP status of a peer rejection, 0 otherwise
	err    error
}

func (c *Cluster) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, profstore.MaxIngestBytes+1))
	if err != nil {
		fail(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > profstore.MaxIngestBytes {
		fail(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", profstore.MaxIngestBytes)
		return
	}
	var tags []string
	if t := r.URL.Query().Get("tags"); t != "" {
		tags = strings.Split(t, ",")
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		id = profstore.DeriveID(body)
	}
	owners := c.ring.Owners(id, c.cfg.Replicas)

	start := time.Now()
	results := make([]ownerResult, len(owners))
	sem := make(chan struct{}, c.cfg.FanOut)
	var wg sync.WaitGroup
	for i, owner := range owners {
		wg.Add(1)
		go func(i int, owner string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = c.ingestOne(owner, body, id, tags)
		}(i, owner)
	}
	wg.Wait()
	c.span("cluster/ingest", id, start, int64(len(body)))

	acked := 0
	var success *ownerResult
	var rejected *ownerResult // non-retryable 4xx from a peer or parse failure
	for i := range results {
		res := &results[i]
		if res.err == nil {
			acked++
			if success == nil {
				success = res
			}
			continue
		}
		if res.status >= 400 && res.status < 500 {
			rejected = res
		}
	}
	if acked >= c.quorum {
		if success.local != nil {
			writeJSON(w, profstore.IngestResponse{
				ID: success.local.ID, Ranks: success.local.Ranks,
				Salvaged: success.local.Salvaged, Warnings: success.local.Warnings,
				Tags: success.local.Tags,
			})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(success.body)
		return
	}
	c.quorumFails.Add(1)
	// Every replica of an unparseable document rejects it identically;
	// relay the permanent rejection instead of a retryable 503.
	if acked == 0 && rejected != nil {
		fail(w, rejected.status, "%v", rejected.err)
		return
	}
	failUnavailable(w, "write quorum not reached: %d/%d owners acked (need %d)", acked, len(owners), c.quorum)
}

// ingestOne lands the document on one owner: directly into the local
// store for self, via the retrying Poster for a peer.
func (c *Cluster) ingestOne(owner string, body []byte, id string, tags []string) ownerResult {
	res := ownerResult{owner: owner}
	if owner == c.cfg.Self {
		job, err := c.cfg.Store.Ingest(body, id, tags)
		res.local, res.err = job, err
		if err != nil && !isRetryable(err) {
			res.status = http.StatusBadRequest
		}
		return res
	}
	start := time.Now()
	c.peerReq.With(owner).Add(1)
	c.forwards.Add(1)
	_, respBody, err := c.posters[owner].PostXMLResult(body, id, tags)
	c.peerLat.With(owner).Observe(float64(time.Since(start).Nanoseconds()))
	if err != nil {
		c.peerErr.With(owner).Add(1)
		res.err = err
		res.status = profstore.HTTPStatus(err)
		return res
	}
	res.body = respBody
	return res
}

// isRetryable classifies a local ingest failure the way the HTTP layer
// does: lifecycle errors are the store's fault (503), parse errors the
// client's (400).
func isRetryable(err error) bool {
	return profstore.IsLifecycleErr(err)
}

// ---- scatter-gather queries ----

// peerGet fetches one peer-local URL with the retry schedule, recording
// latency and error metrics.
func (c *Cluster) peerGet(peer, path string) ([]byte, error) {
	var lastErr error
	attempts := c.cfg.Retry.Attempts()
	if c.cfg.Retry.Disable {
		attempts = 1
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.Retry.BackoffFor(attempt - 1))
		}
		start := time.Now()
		c.peerReq.With(peer).Add(1)
		resp, err := c.client.Get(peer + path)
		if err != nil {
			c.peerLat.With(peer).Observe(float64(time.Since(start).Nanoseconds()))
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		c.peerLat.With(peer).Observe(float64(time.Since(start).Nanoseconds()))
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode/100 != 2 {
			lastErr = fmt.Errorf("peer returned %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
			if resp.StatusCode < 500 {
				break // permanent
			}
			continue
		}
		return body, nil
	}
	c.peerErr.With(peer).Add(1)
	return nil, fmt.Errorf("storecluster: %s%s: %w", peer, path, lastErr)
}

// scatter fetches path from every peer concurrently (bounded by FanOut)
// and returns the bodies keyed by peer. Reads are strict: any peer
// failure fails the scatter, because a partial merge could silently
// drop that peer's exclusive jobs.
func (c *Cluster) scatter(op, path string) (map[string][]byte, error) {
	c.scatters.Add(1)
	type reply struct {
		peer string
		body []byte
		err  error
	}
	sem := make(chan struct{}, c.cfg.FanOut)
	replies := make(chan reply, len(c.peers))
	for _, peer := range c.peers {
		go func(peer string) {
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			body, err := c.peerGet(peer, path)
			c.span("cluster/"+op, peer, start, int64(len(body)))
			replies <- reply{peer, body, err}
		}(peer)
	}
	out := make(map[string][]byte, len(c.peers))
	var firstErr error
	for range c.peers {
		rep := <-replies
		if rep.err != nil && firstErr == nil {
			firstErr = rep.err
		}
		out[rep.peer] = rep.body
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// primaryJobs returns the local selection restricted to the jobs this
// member is primary for, in id order.
func (c *Cluster) primaryJobs(sel string) []*profstore.Job {
	jobs := c.cfg.Store.Select(sel)
	out := jobs[:0]
	for _, j := range jobs {
		if c.ring.Primary(j.ID) == c.cfg.Self {
			out = append(out, j)
		}
	}
	return out
}

// primaryPartial is this member's share of a partial-path read over sel,
// memoized under the store epoch: built lazily by the first read after
// an ingest, so the write path does no extra work.
func (c *Cluster) primaryPartial(sel string) *profstore.Partial {
	return c.cfg.Store.Memo("primary\x00"+c.cfg.Self+"\x00"+sel, func() any {
		return profstore.BuildPartial(c.primaryJobs(sel))
	}).(*profstore.Partial)
}

// localRollups is the per-job path's member-side payload: the wire
// image of the union of the local selections, in id order.
func (c *Cluster) localRollups(sels []string) []profstore.WireJob {
	if len(sels) == 1 && sels[0] == "" {
		return c.cfg.Store.WireJobs()
	}
	seen := make(map[string]bool)
	var jobs []*profstore.Job
	for _, sel := range sels {
		for _, j := range c.cfg.Store.Select(sel) {
			if !seen[j.ID] {
				seen[j.ID] = true
				jobs = append(jobs, j)
			}
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
	out := make([]profstore.WireJob, len(jobs))
	for i, j := range jobs {
		out[i] = j.Wire()
	}
	return out
}

// localMetas is the member-side payload of /shard/jobs: on the partial
// path only the jobs this member is primary for, so the router's
// concatenation holds each job once.
func (c *Cluster) localMetas(sel string) []profstore.JobMeta {
	if c.cfg.primariesComplete() {
		return profstore.Metas(c.primaryJobs(sel))
	}
	return c.cfg.Store.JobMetas(sel)
}

// handleShardRollups answers one member's share of a read over every
// sel= in the query: one partial per selector on the partial path,
// else the wire rollups of the union of the selections.
func (c *Cluster) handleShardRollups(w http.ResponseWriter, r *http.Request) {
	sels := r.URL.Query()["sel"]
	if len(sels) == 0 {
		sels = []string{""}
	}
	var body []byte
	var err error
	if c.cfg.primariesComplete() {
		parts := make([]*profstore.Partial, len(sels))
		for i, sel := range sels {
			parts[i] = c.primaryPartial(sel)
		}
		body, err = profstore.EncodePartials(parts)
	} else {
		body, err = profstore.EncodeWireJobs(c.localRollups(sels))
	}
	if err != nil {
		fail(w, http.StatusInternalServerError, "encoding rollups: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (c *Cluster) handleShardJobs(w http.ResponseWriter, r *http.Request) {
	body, err := json.Marshal(c.localMetas(r.URL.Query().Get("sel")))
	if err != nil {
		fail(w, http.StatusInternalServerError, "encoding jobs: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// gather answers a cluster-wide read over sels with one scatter: one
// merged partial per selector, each equal to what a single store
// holding the union corpus would build from Select(sel).
func (c *Cluster) gather(op string, sels ...string) ([]*profstore.Partial, error) {
	var bodies map[string][]byte
	if len(c.peers) > 0 {
		var err error
		bodies, err = c.scatter(op, "/shard/rollups?"+url.Values{"sel": sels}.Encode())
		if err != nil {
			return nil, err
		}
	}
	if !c.cfg.primariesComplete() {
		return c.mergeWireJobs(sels, bodies)
	}
	parts := make([][]*profstore.Partial, len(sels))
	for i, sel := range sels {
		parts[i] = []*profstore.Partial{c.primaryPartial(sel)}
	}
	// The primary sets are disjoint, so peers' partials merge with no
	// dedup; peer order is fixed, though the merge does not depend on it.
	for _, peer := range c.peers {
		pp, err := profstore.DecodePartials(bodies[peer])
		if err == nil && len(pp) != len(sels) {
			err = fmt.Errorf("got %d partials for %d selectors", len(pp), len(sels))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", peer, err)
		}
		for i := range sels {
			parts[i] = append(parts[i], pp[i])
		}
	}
	out := make([]*profstore.Partial, len(sels))
	for i := range sels {
		out[i] = profstore.MergePartials(parts[i]...)
	}
	return out, nil
}

// mergeWireJobs is gather's per-job path (see primariesComplete): every
// member's wire rollups, deduped by id, filtered per selector.
func (c *Cluster) mergeWireJobs(sels []string, bodies map[string][]byte) ([]*profstore.Partial, error) {
	shards := [][]profstore.WireJob{c.localRollups(sels)}
	for _, peer := range c.peers {
		wj, err := profstore.DecodeWireJobs(bodies[peer])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", peer, err)
		}
		shards = append(shards, wj)
	}
	jobs := profstore.MergeWireJobs(shards...)
	out := make([]*profstore.Partial, len(sels))
	for i, sel := range sels {
		out[i] = profstore.BuildPartial(profstore.FilterJobs(jobs, sel))
	}
	return out, nil
}

func (c *Cluster) handleAgg(w http.ResponseWriter, r *http.Request) {
	topN := 0
	if t := r.URL.Query().Get("top"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n <= 0 {
			fail(w, http.StatusBadRequest, "bad top=%q", t)
			return
		}
		topN = n
	}
	sel := r.URL.Query().Get("sel")
	parts, err := c.gather("agg", sel)
	if err != nil {
		failUnavailable(w, "scatter failed: %v", err)
		return
	}
	rep := parts[0].Report(profstore.AggOptions{Sel: sel, TopN: topN})
	if r.URL.Query().Get("format") == "html" {
		profstore.WriteAggHTML(w, rep)
		return
	}
	writeJSON(w, rep)
}

func (c *Cluster) handleRegress(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	base, head := q.Get("base"), q.Get("head")
	if base == "" || head == "" {
		fail(w, http.StatusBadRequest, "base= and head= are required (job id, tag:T or cmd:C)")
		return
	}
	opts := profstore.RegressOptions{Base: base, Head: head}
	if t := q.Get("threshold"); t != "" {
		v, err := strconv.ParseFloat(t, 64)
		if err != nil || v <= 0 {
			fail(w, http.StatusBadRequest, "bad threshold=%q", t)
			return
		}
		opts.Threshold = v
	}
	parts, err := c.gather("regress", base, head)
	if err != nil {
		failUnavailable(w, "scatter failed: %v", err)
		return
	}
	rep := profstore.RegressPartials(parts[0], parts[1], opts)
	if rep.BaseJobs == 0 || rep.HeadJobs == 0 {
		fail(w, http.StatusNotFound, "base matched %d job(s), head %d", rep.BaseJobs, rep.HeadJobs)
		return
	}
	if q.Get("format") == "html" {
		profstore.WriteRegressHTML(w, rep)
		return
	}
	writeJSON(w, rep)
}

func (c *Cluster) handleJobs(w http.ResponseWriter, r *http.Request) {
	sel := r.URL.Query().Get("sel")
	metas := c.localMetas(sel)
	if len(c.peers) > 0 {
		bodies, err := c.scatter("jobs", "/shard/jobs?sel="+queryEscape(sel))
		if err != nil {
			failUnavailable(w, "scatter failed: %v", err)
			return
		}
		// On the partial path the members' lists are disjoint and the
		// dedup never fires; the per-job path needs it for replicas.
		seen := make(map[string]bool, len(metas))
		for _, m := range metas {
			seen[m.ID] = true
		}
		for _, peer := range c.peers {
			var peerMetas []profstore.JobMeta
			if err := json.Unmarshal(bodies[peer], &peerMetas); err != nil {
				failUnavailable(w, "scatter failed: %s: %v", peer, err)
				return
			}
			for _, m := range peerMetas {
				if !seen[m.ID] {
					seen[m.ID] = true
					metas = append(metas, m)
				}
			}
		}
		sort.Slice(metas, func(i, j int) bool { return metas[i].ID < metas[j].ID })
	}
	if r.URL.Query().Get("format") == "html" {
		profstore.WriteJobsHTML(w, metas)
		return
	}
	writeJSON(w, metas)
}

func (c *Cluster) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if c.cfg.Store.Get(id) != nil {
		c.cfg.Local.ServeHTTP(w, r)
		return
	}
	// Not local: ask the owners that aren't us.
	var lastErr error
	for _, owner := range c.ring.Owners(id, c.cfg.Replicas) {
		if owner == c.cfg.Self {
			continue
		}
		start := time.Now()
		body, err := c.peerGet(owner, "/shard/job/"+id)
		c.span("cluster/job", owner, start, int64(len(body)))
		if err == nil {
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
			return
		}
		lastErr = err
	}
	if lastErr != nil && !strings.Contains(lastErr.Error(), "peer returned 404") {
		failUnavailable(w, "forward failed: %v", lastErr)
		return
	}
	fail(w, http.StatusNotFound, "no job %q", id)
}

func queryEscape(s string) string { return url.QueryEscape(s) }
