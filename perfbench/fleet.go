package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"ipmgo/internal/profstore"
	"ipmgo/internal/storecluster"
	"ipmgo/internal/telemetry"
)

// Cluster shape shared by the ingest and query workloads: three
// members, each job on two of them. Each member fsyncs its WAL once
// every fleetSync appends. ipmserve's default is every append; on a
// 2-vCPU VM whose disk swung between about 1,700 and 7,200 fsyncs a
// second within seconds, that made closed-loop ingest throughput vary
// by up to 0.43 (interquartile range over median) from run to run,
// more than any bound can absorb, against 0.05 to 0.16 with every 16th
// append. The fsync itself stays measured per layer.
const (
	fleetMembers  = 3
	fleetReplicas = 2
	fleetSync     = 16
)

// fleetPort is the first loopback port the members try. Placement on
// the ring hashes the member URLs, so members on the same ports own the
// same share of every corpus, run after run; random ports would change
// which member carries the most jobs, and with it the throughput.
const fleetPort = 47310

// listenFixed opens the members' listeners on fleetPort and up, moving
// to the next block of ports only if one is taken. It logs the block it
// took, since a moved block moves the placement with it.
func listenFixed() ([]net.Listener, error) {
	var lastErr error
	for base := fleetPort; base < fleetPort+20*fleetMembers; base += fleetMembers {
		var lns []net.Listener
		for i := 0; i < fleetMembers; i++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				lastErr = err
				break
			}
			lns = append(lns, ln)
		}
		if len(lns) == fleetMembers {
			if base == fleetPort {
				logf("fleet: members on 127.0.0.1:%d-%d", base, base+fleetMembers-1)
			} else {
				logf("fleet: members on 127.0.0.1:%d-%d, not %d-%d (taken): ring placement differs from other runs",
					base, base+fleetMembers-1, fleetPort, fleetPort+fleetMembers-1)
			}
			return lns, nil
		}
		for _, ln := range lns {
			ln.Close()
		}
	}
	return nil, fmt.Errorf("no free loopback ports from %d: %w", fleetPort, lastErr)
}

// member is one in-process store member on a loopback listener.
type member struct {
	store *profstore.Store
	srv   *http.Server
	done  chan struct{} // closed when Serve has returned
}

// fleet is a running cluster, wired the way the storecluster benches
// wire theirs. With a tracer, every member additionally gets the timing
// wrappers on its WAL, its single-node handler, its peer transport and
// its route handler; they record only while the tracer is on.
type fleet struct {
	dir     string
	members []*member
	urls    []string
}

func startFleet(dir string, tr *tracer) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	listeners, err := listenFixed()
	if err != nil {
		return nil, err
	}
	peers := map[string]int{}
	for i, ln := range listeners {
		f.urls = append(f.urls, "http://"+ln.Addr().String())
		peers[ln.Addr().String()] = i
	}
	for i, ln := range listeners {
		m, err := startMember(f, i, ln, peers, tr)
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		f.members = append(f.members, m)
	}
	return f, nil
}

// startMember opens member i's store and serves its cluster handler on ln.
func startMember(f *fleet, i int, ln net.Listener, peers map[string]int, tr *tracer) (*member, error) {
	opts := profstore.StoreOptions{SyncEvery: fleetSync}
	if tr != nil {
		opts.WrapWAL = func(w profstore.WriteSyncer) profstore.WriteSyncer {
			return &timedWAL{inner: w, tr: tr, member: i}
		}
	}
	store, _, err := profstore.OpenStore(filepath.Join(f.dir, fmt.Sprintf("member%d.wal", i)), opts)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	cfg := storecluster.Config{
		Self:     f.urls[i],
		Members:  f.urls,
		Replicas: fleetReplicas,
		Store:    store,
		Local:    profstore.NewServer(store, reg).Handler(),
		Registry: reg,
		Timeout:  10 * time.Second,
	}
	if tr != nil {
		cfg.Local = timedHandler(cfg.Local, tr, "local", i)
		cfg.Transport = &timedTransport{inner: profstore.SharedClient(0).Transport, tr: tr, member: i, peers: peers}
	}
	cl, err := storecluster.New(cfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	var h http.Handler = cl.Handler()
	if tr != nil {
		h = timedHandler(h, tr, "route", i)
	}
	m := &member{store: store, srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(m.done)
		m.srv.Serve(ln)
	}()
	return m, nil
}

// close stops every member's server, waits for it, and closes its store.
func (f *fleet) close() error {
	var errs []error
	for _, m := range f.members {
		m.srv.Close()
		<-m.done
		errs = append(errs, m.store.Close())
	}
	f.members = nil
	return errors.Join(errs...)
}

// diskBytes sums the sizes of every file the members wrote.
func (f *fleet) diskBytes() int64 {
	var n int64
	filepath.WalkDir(f.dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// loadClient is the load generator's side: its own HTTP transport
// (connections bounded by the client count) and one Poster per member.
type loadClient struct {
	http    *http.Client
	posters []*profstore.Poster
	tr      *tracer
}

func newLoadClient(f *fleet, clients int, tr *tracer) *loadClient {
	t := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, IdleConnTimeout: time.Minute}
	lc := &loadClient{http: &http.Client{Timeout: 30 * time.Second, Transport: t}, tr: tr}
	for _, u := range f.urls {
		lc.posters = append(lc.posters, &profstore.Poster{URL: u, Client: lc.http})
	}
	return lc
}

func (lc *loadClient) close() { lc.http.CloseIdleConnections() }

// post ingests one document through member m's Poster, its id derived
// from its content as ipmrun's PostProfile does.
func (lc *loadClient) post(m int, doc []byte, id, tag string) error {
	start := time.Now()
	_, err := lc.posters[m].PostXML(doc, id, []string{tag})
	if lc.tr.active() {
		lc.tr.add("client.ingest", -1, 0, "id:"+id, start, int64(len(doc)))
	}
	return err
}

// get fetches url and returns the body; anything but 200 is an error.
// op joins member-side spans to this request when tracing.
func (lc *loadClient) get(layer, url string, op int) ([]byte, error) {
	start := time.Now()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	key := ""
	if lc.tr.active() {
		key = fmt.Sprint("op:", op)
		req.Header.Set(opHeader, fmt.Sprint(op))
	}
	resp, err := lc.http.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lc.tr.add(layer, -1, 0, key, start, int64(len(body)))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// posterStats sums the Posters' retry and failure counters.
func (lc *loadClient) posterStats() profstore.PosterStats {
	var st profstore.PosterStats
	for _, p := range lc.posters {
		s := p.Stats()
		st.Posts += s.Posts
		st.Retries += s.Retries
		st.Failures += s.Failures
	}
	return st
}

// ackedDoc is one acknowledged ingest, enough to rebuild it.
type ackedDoc struct {
	ref docRef
	id  string
}

// referenceAgg feeds the acknowledged documents to one in-memory
// single-node store and returns its /agg?top=5 bytes: what every
// member must answer.
func referenceAgg(c *corpus, docs []ackedDoc) ([]byte, error) {
	ref := profstore.New()
	var buf []byte
	for _, d := range docs {
		buf = c.render(d.ref, buf)
		if _, err := ref.Ingest(append([]byte(nil), buf...), d.id, []string{tagName(d.ref.Tag)}); err != nil {
			return nil, fmt.Errorf("reference ingest %s: %w", d.id, err)
		}
	}
	rec := httptest.NewRecorder()
	profstore.NewServer(ref, telemetry.NewRegistry()).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/agg?top=5", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference /agg: %d", rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// memberAggs fetches /agg?top=5 from every member.
func memberAggs(lc *loadClient, f *fleet) ([][]byte, error) {
	var out [][]byte
	for i, u := range f.urls {
		got, err := lc.get("check", u+"/agg?top=5", 0)
		if err != nil {
			return nil, fmt.Errorf("member %d /agg: %w", i, err)
		}
		out = append(out, got)
	}
	return out, nil
}

// checkAggs requires every member's /agg to equal the single-node
// reference over the acknowledged documents. The cluster is closed
// first, so the reference store never shares memory with it.
func (sr *storeRun) checkAggs(rep *report) error {
	got, err := memberAggs(sr.lc, sr.fleet)
	if err != nil {
		rep.check(false, "%v", err)
		return nil
	}
	sr.close()
	want, err := referenceAgg(sr.corpus, sr.acked)
	if err != nil {
		return err
	}
	same := 0
	for i, g := range got {
		ok := bytes.Equal(g, want)
		rep.check(ok, "member %d /agg differs from the single-node reference (%d vs %d bytes)", i, len(g), len(want))
		if ok {
			same++
		}
	}
	logf("check: /agg (%d bytes, %d jobs) identical to the single-node reference on %d of %d members",
		len(want), len(sr.acked), same, len(got))
	return nil
}
