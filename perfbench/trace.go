package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipmgo/internal/profstore"
)

// span is one timed call into a layer, recorded from outside it: by the
// load generator around its calls, by the HTTP handler and transport
// wrappers the store members are wired with, and by the WAL wrapper.
type span struct {
	Layer  string        `json:"layer"`
	Member int           `json:"member"`         // member that ran it; -1 for the load generator
	Peer   int           `json:"peer,omitempty"` // target member of a peer request
	Key    string        `json:"key,omitempty"`  // join key shared along one request: "id:<job>" or "op:<n>"
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Bytes  int64         `json:"bytes,omitempty"`
	Parent int           `json:"parent"` // index of the causing span, -1 for a root
}

// tracer keeps spans in memory while on; the traced phase switches it
// on, and the spans are written out once the run ends.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// add records a span that started at start and ends now.
func (t *tracer) add(layer string, member, peer int, key string, start time.Time, bytes int64) {
	t.record(layer, member, peer, key, start, time.Now(), bytes)
}

// record records a span with explicit bounds.
func (t *tracer) record(layer string, member, peer int, key string, start, end time.Time, bytes int64) {
	if !t.active() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layer, Member: member, Peer: peer, Key: key,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Bytes: bytes, Parent: -1})
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far. A member's handler can
// still be closing a span just after its client saw the response, so
// readers take a copy.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// ---- wrappers around the existing seams ----

// timedWAL wraps a member's WAL append path (StoreOptions.WrapWAL).
type timedWAL struct {
	inner  profstore.WriteSyncer
	tr     *tracer
	member int
}

func (w *timedWAL) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.inner.Write(p)
	w.tr.add("wal.write", w.member, 0, "", start, int64(n))
	return n, err
}

func (w *timedWAL) Sync() error {
	start := time.Now()
	err := w.inner.Sync()
	w.tr.add("wal.fsync", w.member, 0, "", start, 0)
	return err
}

// timedHandler wraps an http.Handler: prefix.<endpoint> spans keyed by
// the request's job id or load-generator op number. On a member's route
// handler, the /shard/* requests peers send are shard.<endpoint> spans.
func timedHandler(h http.Handler, tr *tracer, prefix string, member int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.active() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		layer := prefix + "." + endpoint(r.URL.Path)
		if rest, ok := strings.CutPrefix(r.URL.Path, "/shard"); ok && prefix == "route" {
			layer = "shard." + endpoint(rest) // a peer's request, served by this member
		}
		tr.add(layer, member, 0, requestKey(r), start, cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// timedTransport wraps a member's peer transport (Config.Transport):
// peer.<endpoint> spans from request start to response body close.
type timedTransport struct {
	inner  http.RoundTripper
	tr     *tracer
	member int
	peers  map[string]int // host:port -> member index
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.active() {
		return t.inner.RoundTrip(req)
	}
	start := time.Now()
	layer := "peer." + endpoint(strings.TrimPrefix(req.URL.Path, "/shard"))
	peer, key := t.peers[req.URL.Host], requestKey(req)
	if strings.HasPrefix(req.URL.Path, "/shard/job/") {
		key = "id:" + strings.TrimPrefix(req.URL.Path, "/shard/job/")
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.tr.add(layer, t.member, peer, key, start, 0)
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		t.tr.add(layer, t.member, peer, key, start, n)
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// endpoint names a request path: /ingest, /agg, /job/{id} -> ingest,
// agg, job.
func endpoint(path string) string {
	path = strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(path, '/'); i >= 0 {
		path = path[:i]
	}
	if path == "" {
		return "root"
	}
	return path
}

// opHeader carries the load generator's op number on read requests so
// member-side spans join the op that caused them. Ingests join on the
// job id the request already carries.
const opHeader = "X-Perfbench-Op"

func requestKey(r *http.Request) string {
	if op := r.Header.Get(opHeader); op != "" {
		return "op:" + op
	}
	if id := r.URL.Query().Get("id"); id != "" {
		return "id:" + id
	}
	if strings.HasPrefix(r.URL.Path, "/job/") {
		return "id:" + strings.TrimPrefix(r.URL.Path, "/job/")
	}
	return ""
}

// ---- parents and self time ----

// parentLayers lists, by layer prefix, which layers may have caused a
// span: the load generator's op causes the member route, the route
// causes its peer requests, a peer request causes the shard-side
// handling on its target, the route or the shard handler call the
// member's single-node handler, and WAL writes happen inside an ingest
// on the same member.
var parentLayers = map[string][]string{
	"sim.":   {"client.job"},
	"route.": {"client."},
	"peer.":  {"route."},
	"shard.": {"peer."},
	"local.": {"shard.", "route."},
	"wal.":   {"local.ingest", "route.ingest"},
}

func allowedParents(layer string) []string {
	for prefix, ps := range parentLayers {
		if strings.HasPrefix(layer, prefix) {
			return ps
		}
	}
	return nil
}

// link resolves every span's parent: among spans of an allowed parent
// layer that enclose it in time and sit on the same member (for a peer
// request, the member it targeted), the innermost one sharing its join
// key, else the innermost one at all.
func link(spans []span) {
	byStart := make([]int, len(spans))
	for i := range byStart {
		byStart[i] = i
	}
	sort.Slice(byStart, func(a, b int) bool { return spans[byStart[a]].Start < spans[byStart[b]].Start })
	byKey := map[string][]int{}
	byMember := map[int][]int{}
	for _, i := range byStart {
		s := spans[i]
		if s.Key != "" {
			byKey[s.Key] = append(byKey[s.Key], i)
		}
		byMember[s.Member] = append(byMember[s.Member], i)
		if strings.HasPrefix(s.Layer, "peer.") && s.Peer != s.Member {
			byMember[s.Peer] = append(byMember[s.Peer], i)
		}
	}
	for i := range spans {
		c := &spans[i]
		c.Parent = -1
		parents := allowedParents(c.Layer)
		if parents == nil {
			continue
		}
		best := -1
		if c.Key != "" {
			best = enclosing(spans, byKey[c.Key], i, parents)
		}
		if best < 0 {
			best = enclosing(spans, byMember[c.Member], i, parents)
		}
		c.Parent = best
	}
}

// enclosing returns the innermost candidate (sorted by start) of an
// allowed parent layer that encloses span i, or -1.
func enclosing(spans []span, cands []int, i int, parents []string) int {
	c := spans[i]
	// Enclosing spans start no later than the child: walk back from the
	// last such candidate. Concurrency bounds how far back an enclosing
	// one can sit.
	last := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].Start > c.Start })
	for k := last - 1; k >= 0 && k >= last-256; k-- {
		j := cands[k]
		p := spans[j]
		if j == i || p.End < c.End || !hasPrefixAny(p.Layer, parents) {
			continue
		}
		// The load generator's op joins by key alone; everything else
		// must have run on the child's member or, for a peer request,
		// targeted it.
		onMember := p.Member == c.Member || (strings.HasPrefix(p.Layer, "peer.") && p.Peer == c.Member)
		if !strings.HasPrefix(c.Layer, "route.") && !onMember {
			continue
		}
		return j
	}
	return -1
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerTime is one layer's span count, summed span time and self time
// (span time minus the part of it its child spans cover).
type layerTime struct {
	Count   int
	TotalMS float64
	SelfMS  float64
}

func selfTimes(spans []span) map[string]*layerTime {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		lt := out[s.Layer]
		if lt == nil {
			lt = &layerTime{}
			out[s.Layer] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMS += ms(dur)
		lt.SelfMS += ms(dur - covered(spans, children[i], s))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(spans []span, kids []int, p span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		iv = append(iv, [2]time.Duration{max(spans[k].Start, p.Start), min(spans[k].End, p.End)})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE time.Duration
	open := false
	for _, v := range iv {
		if open && v[0] <= curE {
			curE = max(curE, v[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = v[0], v[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// layerStats sums the spans of one layer: count, mean duration in ms,
// summed bytes.
func layerStats(spans []span, layer string) (n int, meanMS float64, bytes int64) {
	var total time.Duration
	for _, s := range spans {
		if s.Layer == layer {
			n++
			total += s.End - s.Start
			bytes += s.Bytes
		}
	}
	if n > 0 {
		meanMS = ms(total) / float64(n)
	}
	return n, meanMS, bytes
}

// writeTrace writes the spans (one JSON object per line) and prints the
// per-layer time split to stderr.
func writeTrace(spans []span, path string) error {
	lt := selfTimes(spans)
	layers := make([]string, 0, len(lt))
	for l := range lt {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	logf("trace: %d spans -> %s", len(spans), path)
	for _, l := range layers {
		v := lt[l]
		logf("trace: %-16s n=%-6d total=%10.1fms self=%10.1fms mean=%.3fms", l, v.Count, v.TotalMS, v.SelfMS, v.TotalMS/float64(v.Count))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
