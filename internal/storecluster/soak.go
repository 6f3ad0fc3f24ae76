package storecluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ipmgo/internal/faultsim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
)

// This file is the store harness behind `ipmserve -soak` and the serve
// e2e tests. It stands up a fleet of N members, each over its own WAL
// (one member is a plain single-node store, more form a cluster),
// ingests a deterministic synthetic corpus from concurrent workers that
// rotate routers, and either hammers the read endpoints meanwhile (no
// kill cycles: a load self-test) or SIGKILLs rotating members mid-ingest
// and restarts them. It is gated on the store's durability contract,
// checked twice: on the live fleet once ingest ends, and again after a
// graceful SIGTERM and cold restart of every member.
//
//   - Zero lost acknowledged jobs: every document is present in /jobs
//     from every member, and the count is exactly the corpus size.
//   - Byte-identical queries: /agg, /jobs and /regress from every member
//     equal a never-killed in-process single-node reference over the
//     same documents.
//
// Quorum writes make the first gate honest: an ack means R/2+1 owners
// persisted the document, so one member's death cannot lose it.
// Content-derived ids make the second gate exact even for documents
// re-posted through another router after a kill.

// SoakOptions sizes one harness run.
type SoakOptions struct {
	// ServerCmd is the argv of a child ipmserve; the harness appends
	// -addr, -wal and -compact-every, -snapshot-on-exit when
	// CompactEvery > 0, and -peers, -self and -replicas when Members > 1.
	// Empty runs every member in process, which cannot be SIGKILLed, so
	// Cycles must then be 0.
	ServerCmd []string
	Members   int // fleet size (default 1)
	Replicas  int // copies per job when Members > 1 (default 2)
	Jobs      int // synthetic profiles to ingest (default 120)
	Workers   int // concurrent ingest workers (default 4)
	// Cycles is the number of SIGKILL/restart cycles. 0 means no kills:
	// readers query every member during ingest, and any failed post or
	// read is an error.
	Cycles int
	// CompactEvery is the members' snapshot cadence in appends (default
	// 32). A member snapshots on graceful exit exactly when it is > 0; -1
	// makes every recovery replay WAL records alone.
	CompactEvery int
	Timeout      time.Duration // wall-clock budget (default 120s)
	Seed         uint64        // corpus seed (default 2011)
	Dir          string        // scratch dir (default: fresh temp, removed)
	Logf         func(format string, args ...any)
}

// SoakReport summarises a harness run.
type SoakReport struct {
	Members       int
	Replicas      int
	Acked         int   // jobs acknowledged with a 2xx by some router
	Retried       int64 // posts that needed more than one round
	Kills         int
	Restarts      int
	Queries       int64 // reads served during ingest
	IngestBytes   int64 // XML bytes acknowledged through /ingest
	IngestElapsed time.Duration
	AggBytes      int // size of the (verified identical) /agg body
	Elapsed       time.Duration
}

const (
	// readers is the number of query workers during a run without
	// kills; a killed member makes strict reads answer 503 by design.
	readers = 4
	// requestTimeout bounds one post attempt on a member that has
	// stopped answering; every GET is also cut off at the run deadline.
	requestTimeout = 10 * time.Second
)

// gateQueries are the reads the second gate compares byte for byte.
var gateQueries = []string{
	"/agg?sel=tag:soak",
	"/jobs",
	"/regress?base=tag:batch:0&head=tag:batch:1&threshold=5",
}

// member is one fleet member on a reserved address over its own WAL.
// The child-process launcher runs serverCmd as an ipmserve; the
// in-process launcher (no serverCmd) serves profstore.OpenStore +
// NewServer on the same address. Either joins a cluster router when
// peers names more than one member.
type member struct {
	addr, url, wal string
	serverCmd      []string
	peers          []string // every member's base URL, this one included
	replicas       int
	compactEvery   int

	cmd    *exec.Cmd // running child
	store  *profstore.Store
	srv    *profstore.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
}

func (m *member) start() error {
	if len(m.serverCmd) > 0 {
		args := append(append([]string{}, m.serverCmd[1:]...),
			"-addr", m.addr, "-wal", m.wal, "-compact-every", fmt.Sprint(m.compactEvery))
		if m.compactEvery > 0 {
			args = append(args, "-snapshot-on-exit")
		}
		if len(m.peers) > 1 {
			args = append(args, "-peers", strings.Join(m.peers, ","), "-self", m.url,
				"-replicas", fmt.Sprint(m.replicas))
		}
		cmd := exec.Command(m.serverCmd[0], args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("soak: starting member %s: %w", m.addr, err)
		}
		m.cmd = cmd
		return nil
	}
	store, _, err := profstore.OpenStore(m.wal, profstore.StoreOptions{CompactEvery: m.compactEvery})
	if err != nil {
		return fmt.Errorf("soak: opening member %s: %w", m.addr, err)
	}
	reg := telemetry.NewRegistry()
	srv := profstore.NewServer(store, reg)
	handler := srv.Handler()
	if len(m.peers) > 1 {
		cl, err := New(Config{Self: m.url, Members: m.peers, Replicas: m.replicas,
			Store: store, Local: handler, Registry: reg})
		if err != nil {
			store.Close()
			return err
		}
		handler = cl.Handler()
	}
	ln, err := net.Listen("tcp", m.addr)
	if err != nil {
		store.Close()
		return fmt.Errorf("soak: member %s: %w", m.addr, err)
	}
	m.store, m.srv, m.hs = store, srv, &http.Server{Handler: handler}
	m.served = make(chan struct{})
	go func(hs *http.Server, served chan struct{}) {
		defer close(served)
		hs.Serve(ln)
	}(m.hs, m.served)
	return nil
}

// kill SIGKILLs a running child member — the crash being simulated —
// and reaps it; a running in-process member is closed without a
// snapshot (cleanup only). A stopped member is left alone.
func (m *member) kill() {
	if m.cmd != nil {
		m.cmd.Process.Kill()
		m.cmd.Wait()
		m.cmd = nil
		return
	}
	if m.hs != nil {
		m.hs.Close()
		<-m.served
		m.store.Close()
		m.hs = nil
	}
}

// terminate shuts a member down gracefully and requires a clean exit: a
// child must exit with status 0 after SIGTERM; an in-process member
// drains, snapshots when compactEvery > 0 and closes its WAL, the same
// steps ipmserve takes on SIGTERM.
func (m *member) terminate(ctx context.Context) error {
	if m.cmd == nil {
		m.srv.SetDraining(true)
		err := m.hs.Shutdown(ctx)
		<-m.served
		if err == nil && m.compactEvery > 0 {
			_, err = m.store.Snapshot()
		}
		if cerr := m.store.Close(); err == nil {
			err = cerr
		}
		m.hs = nil
		if err != nil {
			return fmt.Errorf("soak: member %s did not shut down cleanly: %w", m.addr, err)
		}
		return nil
	}
	if err := m.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("soak: SIGTERM %s: %w", m.addr, err)
	}
	done := make(chan error, 1)
	go func(cmd *exec.Cmd) { done <- cmd.Wait() }(m.cmd)
	select {
	case err := <-done:
		m.cmd = nil
		if err != nil {
			return fmt.Errorf("soak: member %s exited uncleanly after SIGTERM: %w", m.addr, err)
		}
		return nil
	case <-ctx.Done():
		m.cmd.Process.Kill()
		<-done
		m.cmd = nil
		return fmt.Errorf("soak: member %s did not exit within deadline after SIGTERM", m.addr)
	}
}

// fleet is the harness's view of the members: the run deadline and the
// one HTTP client every harness request goes through.
type fleet struct {
	ctx     context.Context // done at the run deadline
	client  *http.Client
	members []*member
}

// get fetches one URL body within the run deadline, demanding a 200.
func (f *fleet) get(url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// waitReady polls /readyz until the member accepts writes.
func (f *fleet) waitReady(m *member) error {
	for {
		if _, err := f.get(m.url + "/readyz"); err == nil {
			return nil
		}
		select {
		case <-f.ctx.Done():
			return fmt.Errorf("soak: member %s not ready before deadline", m.addr)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// startAll launches every member, then waits until all accept writes.
func (f *fleet) startAll() error {
	for _, m := range f.members {
		if err := m.start(); err != nil {
			return err
		}
	}
	for _, m := range f.members {
		if err := f.waitReady(m); err != nil {
			return err
		}
	}
	return nil
}

// gate checks both acceptance properties through every member: every
// document is present in /jobs and nothing else is, and every gate
// query answers exactly want.
func (f *fleet) gate(docs []doc, want map[string][]byte) error {
	for i, m := range f.members {
		body, err := f.get(m.url + "/jobs")
		if err != nil {
			return fmt.Errorf("soak: member %d: %w", i, err)
		}
		var metas []profstore.JobMeta
		if err := json.Unmarshal(body, &metas); err != nil {
			return fmt.Errorf("soak: decoding /jobs from member %d: %w", i, err)
		}
		present := make(map[string]bool, len(metas))
		for _, meta := range metas {
			present[meta.ID] = true
		}
		lost := 0
		for _, d := range docs {
			if !present[d.id] {
				lost++
			}
		}
		if lost > 0 {
			return fmt.Errorf("soak: member %d: %d acknowledged job(s) lost", i, lost)
		}
		if len(metas) != len(docs) {
			return fmt.Errorf("soak: member %d sees %d jobs, want %d", i, len(metas), len(docs))
		}
	}
	for _, q := range gateQueries {
		for i, m := range f.members {
			got, err := f.get(m.url + q)
			if err != nil {
				return fmt.Errorf("soak: member %d: %w", i, err)
			}
			if !bytes.Equal(got, want[q]) {
				return fmt.Errorf("soak: %s from member %d differs from the never-killed reference (%d vs %d bytes)", q, i, len(got), len(want[q]))
			}
		}
	}
	return nil
}

// doc is one rendered corpus document.
type doc struct {
	xml  []byte
	id   string
	tags []string
}

// renderCorpus renders n synthetic jobs once, so the same bytes go to the
// fleet and to an in-process single-node reference that is never
// killed, and returns that reference's answer to every gate query.
func renderCorpus(seed uint64, n int) ([]doc, map[string][]byte, error) {
	docs := make([]doc, n)
	ref := profstore.New()
	for i := range docs {
		var buf bytes.Buffer
		if err := ipm.WriteXML(&buf, profstore.SyntheticProfile(seed, i)); err != nil {
			return nil, nil, fmt.Errorf("soak: encoding job %d: %w", i, err)
		}
		docs[i] = doc{xml: buf.Bytes(), id: profstore.DeriveID(buf.Bytes()), tags: []string{"soak", fmt.Sprintf("batch:%d", i%2)}}
		if _, err := ref.Ingest(docs[i].xml, docs[i].id, docs[i].tags); err != nil {
			return nil, nil, fmt.Errorf("soak: reference ingest %d: %w", i, err)
		}
	}
	handler := profstore.NewServer(ref, telemetry.NewRegistry()).Handler()
	want := make(map[string][]byte, len(gateQueries))
	for _, q := range gateQueries {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q, nil))
		if rec.Code != http.StatusOK {
			return nil, nil, fmt.Errorf("soak: reference %s: %d", q, rec.Code)
		}
		want[q] = rec.Body.Bytes()
	}
	return docs, want, nil
}

// Soak runs the store harness. Any failed post or read during a run
// without kills, lost acknowledged job, query divergence from the
// single-node reference on any member, or unclean shutdown is an error.
func Soak(opts SoakOptions) (*SoakReport, error) {
	if opts.Cycles < 0 {
		return nil, fmt.Errorf("soak: Cycles %d < 0", opts.Cycles)
	}
	if opts.Cycles > 0 && len(opts.ServerCmd) == 0 {
		return nil, fmt.Errorf("soak: kill cycles need a child ServerCmd; in-process members cannot be SIGKILLed")
	}
	if opts.Members <= 0 {
		opts.Members = 1
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	opts.Replicas = min(opts.Replicas, opts.Members)
	if opts.Jobs <= 0 {
		opts.Jobs = 120
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 32
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 120 * time.Second
	}
	if opts.Seed == 0 {
		opts.Seed = 2011
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "storecluster-soak")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), opts.Timeout)
	defer cancel()
	f := &fleet{ctx: ctx, client: &http.Client{Timeout: min(requestTimeout, opts.Timeout)}}
	rep := &SoakReport{Members: opts.Members, Replicas: opts.Replicas}

	docs, want, err := renderCorpus(opts.Seed, opts.Jobs)
	if err != nil {
		return rep, err
	}
	rep.AggBytes = len(want[gateQueries[0]])

	// Reserve one port per member by binding and releasing it; Go
	// listeners set SO_REUSEADDR, so the rebinds race nothing but our
	// own dead members. Restarts reuse the same address and WAL, so
	// recovery replays each member's snapshot + WAL into the same ring
	// position.
	urls := make([]string, opts.Members)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return rep, err
		}
		urls[i] = "http://" + ln.Addr().String()
		ln.Close()
	}
	for i, u := range urls {
		f.members = append(f.members, &member{
			addr: strings.TrimPrefix(u, "http://"), url: u,
			wal:       filepath.Join(dir, fmt.Sprintf("member%d.wal", i)),
			serverCmd: opts.ServerCmd, peers: urls,
			replicas: opts.Replicas, compactEvery: opts.CompactEvery,
		})
	}
	defer func() {
		for _, m := range f.members {
			m.kill()
		}
	}()
	if err := f.startAll(); err != nil {
		return rep, err
	}
	logf("soak: %d member(s) on %s (replicas=%d), %d jobs, %d workers, %d kill cycles",
		opts.Members, strings.Join(urls, ","), opts.Replicas, opts.Jobs, opts.Workers, opts.Cycles)

	// Each goroutine below sends at most one error.
	errc := make(chan error, opts.Workers+readers+1)
	var acked, retried, ingestBytes, queries atomic.Int64
	var writers, readersWG sync.WaitGroup
	ingestStart := time.Now()

	// Ingest workers: each owns a strided shard of the corpus and rotates
	// the router per round, so a dead member never wedges a worker. With
	// kill cycles a document is retried until some router acks it;
	// without, every member is up and a post that exhausts its Poster
	// attempts is a failure.
	for w := 0; w < opts.Workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			posters := make([]*profstore.Poster, opts.Members)
			for i := range posters {
				posters[i] = &profstore.Poster{
					URL: urls[i],
					Policy: faultsim.RetryPolicy{
						MaxAttempts: 2,
						Backoff:     faultsim.Dur(10 * time.Millisecond),
						MaxBackoff:  faultsim.Dur(100 * time.Millisecond),
					},
					Client: f.client,
				}
			}
			for i := w; i < len(docs); i += opts.Workers {
				d := docs[i]
				for round := 0; ; round++ {
					_, err := posters[(i+round)%opts.Members].PostXML(d.xml, d.id, d.tags)
					if err == nil {
						if round > 0 {
							retried.Add(1)
						}
						break
					}
					if opts.Cycles == 0 {
						errc <- fmt.Errorf("soak: ingest job %d: %w", i, err)
						return
					}
					select {
					case <-ctx.Done():
						errc <- fmt.Errorf("soak: deadline while ingesting job %d: %w", i, err)
						return
					case <-time.After(25 * time.Millisecond): // a member is restarting
					}
				}
				acked.Add(1)
				ingestBytes.Add(int64(len(d.xml)))
			}
		}()
	}

	// Readers: without kills, hammer every member's read endpoints
	// while the corpus grows.
	ingested := make(chan struct{})
	if opts.Cycles == 0 {
		for q := 0; q < readers; q++ {
			readersWG.Add(1)
			go func() {
				defer readersWG.Done()
				paths := []string{"/agg", "/jobs", "/agg?format=html", "/metrics"}
				for i := 0; ; i++ {
					select {
					case <-ingested:
						return
					default:
					}
					if _, err := f.get(urls[(q+i)%opts.Members] + paths[i%len(paths)]); err != nil {
						errc <- fmt.Errorf("soak: query during ingest: %w", err)
						return
					}
					queries.Add(1)
				}
			}()
		}
	}

	// Killer: SIGKILL a rotating victim each time the ack stream crosses
	// the next threshold — evenly spaced so every cycle lands mid-ingest
	// — then restart it and let recovery replay its snapshot + WAL.
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		for c := 1; c <= opts.Cycles; c++ {
			threshold := int64(c * opts.Jobs / (opts.Cycles + 1))
			for acked.Load() < threshold {
				select {
				case <-ctx.Done():
					errc <- fmt.Errorf("soak: deadline waiting for kill threshold %d", threshold)
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
			v := (c - 1) % opts.Members
			victim := f.members[v]
			logf("soak: cycle %d/%d: SIGKILL member %d at %d acked job(s)", c, opts.Cycles, v, acked.Load())
			victim.kill()
			rep.Kills++
			if err := victim.start(); err != nil {
				errc <- err
				return
			}
			if err := f.waitReady(victim); err != nil {
				errc <- err
				return
			}
			rep.Restarts++
		}
	}()

	writers.Wait()
	rep.IngestElapsed = time.Since(ingestStart)
	close(ingested)
	readersWG.Wait()
	<-killerDone
	rep.Acked = int(acked.Load())
	rep.Retried = retried.Load()
	rep.Queries = queries.Load()
	rep.IngestBytes = ingestBytes.Load()
	select {
	case err := <-errc:
		return rep, err
	default:
	}

	// Gate the live fleet, then shut every member down gracefully, cold
	// restart them all and gate again: the corpus has survived crash,
	// clean shutdown and recovery on every member.
	if err := f.gate(docs, want); err != nil {
		return rep, err
	}
	for _, m := range f.members {
		if err := m.terminate(ctx); err != nil {
			return rep, err
		}
	}
	if err := f.startAll(); err != nil {
		return rep, err
	}
	rep.Restarts += opts.Members
	if err := f.gate(docs, want); err != nil {
		return rep, fmt.Errorf("%w (after cold restart)", err)
	}
	for _, m := range f.members {
		if err := m.terminate(ctx); err != nil {
			return rep, err
		}
	}
	rep.Elapsed = time.Since(start)
	logf("soak: ok — %d jobs acked (%d retried through kill windows), %d kills, %d restarts, %d concurrent queries, queries byte-identical on all %d member(s), in %v",
		rep.Acked, rep.Retried, rep.Kills, rep.Restarts, rep.Queries, opts.Members, rep.Elapsed.Round(time.Millisecond))
	return rep, nil
}
