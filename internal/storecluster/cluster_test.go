package storecluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ipmgo/internal/faultsim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/profstore"
	"ipmgo/internal/telemetry"
)

// testCluster is one in-process cluster: N members, each serving its
// cluster handler on a real listener.
type testCluster struct {
	urls    []string
	stores  []*profstore.Store
	members []*Cluster
	servers []*http.Server
}

// startCluster brings up n members with replication r. Listeners are
// reserved first so every member knows the full membership before it
// starts serving.
func startCluster(t *testing.T, n, r int, transport http.RoundTripper) *testCluster {
	t.Helper()
	tc := &testCluster{}
	listeners := make([]net.Listener, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		tc.urls = append(tc.urls, "http://"+ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		store := profstore.New()
		reg := telemetry.NewRegistry()
		local := profstore.NewServer(store, reg).Handler()
		cl, err := New(Config{
			Self:     tc.urls[i],
			Members:  tc.urls,
			Replicas: r,
			Store:    store,
			Local:    local,
			Registry: reg,
			Recorder: telemetry.NewRecorder(1024),
			// Tight retry budget: tests that kill peers should not sit in
			// default backoff.
			Retry:     faultsim.RetryPolicy{MaxAttempts: 3},
			Transport: transport,
			Timeout:   5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: cl.Handler()}
		go srv.Serve(listeners[i])
		tc.stores = append(tc.stores, store)
		tc.members = append(tc.members, cl)
		tc.servers = append(tc.servers, srv)
	}
	t.Cleanup(func() {
		for _, srv := range tc.servers {
			srv.Close()
		}
	})
	return tc
}

// corpusDocs renders nDocs deterministic synthetic profiles in two tag
// batches, the shape /regress compares.
func corpusDocs(nDocs int) (docs [][]byte, tags []string) {
	for i := 0; i < nDocs; i++ {
		var buf bytes.Buffer
		if err := ipm.WriteXML(&buf, profstore.SyntheticProfile(2011, i)); err != nil {
			panic(err)
		}
		docs = append(docs, buf.Bytes())
		tags = append(tags, fmt.Sprintf("clu,batch:%d", i%2))
	}
	return docs, tags
}

func postDoc(t *testing.T, base string, doc []byte, tags string) string {
	t.Helper()
	resp, err := http.Post(base+"/ingest?tags="+tags, "application/xml", bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func mustGet(t *testing.T, url string) string {
	t.Helper()
	code, body := get(t, url)
	if code != 200 {
		t.Fatalf("GET %s: %d: %s", url, code, body)
	}
	return body
}

// referenceAnswers ingests the corpus into a plain single store and
// renders the reference response bodies through the single-node
// handler's own renderer (an httptest-free in-process server).
func referenceAnswers(t *testing.T, docs [][]byte, tags []string, queries []string) map[string]string {
	t.Helper()
	tc := startCluster(t, 1, 1, nil)
	for i, doc := range docs {
		postDoc(t, tc.urls[0], doc, tags[i])
	}
	out := make(map[string]string, len(queries))
	for _, q := range queries {
		out[q] = mustGet(t, tc.urls[0]+q)
	}
	return out
}

var clusterQueries = []string{
	"/agg",
	"/agg?sel=tag:clu&top=3",
	"/agg?sel=tag:batch:0",
	"/jobs",
	"/jobs?sel=tag:batch:1",
	"/regress?base=tag:batch:0&head=tag:batch:1&threshold=5",
}

// TestClusterByteIdentity is the tentpole acceptance test: /agg,
// /regress and /jobs answer byte-identically on 1-, 2- and 4-member
// clusters, for every router choice, replication factor 1 and 2, and a
// reversed ingest order.
func TestClusterByteIdentity(t *testing.T) {
	docs, tags := corpusDocs(12)
	want := referenceAnswers(t, docs, tags, clusterQueries)

	for _, tt := range []struct {
		members, replicas int
		reverse           bool
	}{
		{1, 1, false},
		{2, 1, false},
		{2, 2, true},
		{4, 2, false},
		{4, 3, true},
	} {
		name := fmt.Sprintf("n=%d/r=%d/reverse=%v", tt.members, tt.replicas, tt.reverse)
		t.Run(name, func(t *testing.T) {
			tc := startCluster(t, tt.members, tt.replicas, nil)
			for i := range docs {
				k := i
				if tt.reverse {
					k = len(docs) - 1 - i
				}
				// Rotate the router so placement does not depend on who
				// accepted the write.
				postDoc(t, tc.urls[k%len(tc.urls)], docs[k], tags[k])
			}
			for _, q := range clusterQueries {
				for ri, router := range tc.urls {
					got := mustGet(t, router+q)
					if got != want[q] {
						t.Errorf("%s via router %d: response differs from single-node reference\ngot:  %.200s\nwant: %.200s", q, ri, got, want[q])
					}
				}
			}
		})
	}
}

// TestClusterReplicationPlacement: every acked job is on exactly the R
// ring owners, and the replicas hold identical wire rollups.
func TestClusterReplicationPlacement(t *testing.T) {
	docs, tags := corpusDocs(10)
	tc := startCluster(t, 3, 2, nil)
	ring := tc.members[0].Ring()
	for i, doc := range docs {
		var resp struct {
			ID string `json:"id"`
		}
		body := postDoc(t, tc.urls[i%3], doc, tags[i])
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		owners := ring.Owners(resp.ID, 2)
		for si, store := range tc.stores {
			has := store.Get(resp.ID) != nil
			shouldHave := owners[0] == tc.urls[si] || owners[1] == tc.urls[si]
			if has != shouldHave {
				t.Errorf("job %s on member %d: present=%v, owner=%v", resp.ID, si, has, shouldHave)
			}
		}
	}
}

// startClusterWithTransportOn rebuilds member i's router over the same
// store and membership but a (fault-injecting) transport, returning the
// handler to drive in-process. The original member keeps serving its
// listener; peers are reached through the new transport.
func startClusterWithTransportOn(t *testing.T, tc *testCluster, i, r int, transport http.RoundTripper) http.Handler {
	t.Helper()
	reg := telemetry.NewRegistry()
	local := profstore.NewServer(tc.stores[i], reg).Handler()
	cl, err := New(Config{
		Self: tc.urls[i], Members: tc.urls, Replicas: r,
		Store: tc.stores[i], Local: local, Registry: reg,
		Retry: faultsim.RetryPolicy{
			MaxAttempts: 2,
			Backoff:     faultsim.Dur(time.Millisecond),
			MaxBackoff:  faultsim.Dur(2 * time.Millisecond),
		},
		Transport: transport,
		Timeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl.Handler()
}

// member returns the index of the member with base URL u.
func (tc *testCluster) member(u string) int {
	for i, v := range tc.urls {
		if v == u {
			return i
		}
	}
	panic("no member " + u)
}

// unreachable returns a peer transport that refuses every request to
// the given members.
func (tc *testCluster) unreachable(t *testing.T, members ...int) http.RoundTripper {
	t.Helper()
	var faults []string
	for _, m := range members {
		faults = append(faults, fmt.Sprintf(`{"host":"%s","at":1,"kind":"unreachable","count":-1}`,
			strings.TrimPrefix(tc.urls[m], "http://")))
	}
	plan, err := faultsim.ParsePeerPlan([]byte(`{"faults":[` + strings.Join(faults, ",") + `]}`))
	if err != nil {
		t.Fatal(err)
	}
	return plan.Wrap(nil)
}

func doReq(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestClusterIngestIdempotent: re-posting the same document through a
// different router replaces, never duplicates, and /agg is unchanged.
func TestClusterIngestIdempotent(t *testing.T) {
	docs, tags := corpusDocs(6)
	tc := startCluster(t, 3, 2, nil)
	for i, doc := range docs {
		postDoc(t, tc.urls[0], doc, tags[i])
	}
	before := mustGet(t, tc.urls[1]+"/agg")
	for i, doc := range docs {
		postDoc(t, tc.urls[2], doc, tags[i])
	}
	after := mustGet(t, tc.urls[1]+"/agg")
	if before != after {
		t.Error("re-ingest through another router changed /agg")
	}
	total := 0
	for _, st := range tc.stores {
		total += st.Len()
	}
	if total != 2*len(docs) {
		t.Errorf("total stored copies = %d, want %d (R=2, no duplicates)", total, 2*len(docs))
	}
}

// TestClusterQuorum: with N=3 R=3, a dead primary still acks (2/3
// quorum) and every healthy router then answers byte-identically to the
// single-node reference — which needs the per-job read path, because the
// primary missed the write; strict reads answer 503 while a member is
// unreachable; and two dead owners answer 503 with Retry-After.
func TestClusterQuorum(t *testing.T) {
	docs, tags := corpusDocs(3)
	tc := startCluster(t, 3, 3, nil)
	primary := tc.member(tc.members[0].Ring().Primary(profstore.DeriveID(docs[0])))
	router, other := (primary+1)%3, (primary+2)%3
	postDoc(t, tc.urls[0], docs[1], tags[1])

	// The primary of docs[0] dead: quorum 2 of 3 still reached. The
	// router is rebuilt over the faulty transport; the members' own
	// listeners keep their healthy routers.
	faulty := startClusterWithTransportOn(t, tc, router, 3, tc.unreachable(t, primary))
	resp := doReq(t, faulty, "POST", "/ingest?tags="+tags[0], docs[0])
	if resp.Code != 200 {
		t.Fatalf("ingest with 1 dead owner: %d: %s", resp.Code, resp.Body.String())
	}
	if tc.stores[primary].Get(profstore.DeriveID(docs[0])) != nil {
		t.Fatal("the unreachable primary holds the document")
	}
	want := referenceAnswers(t, docs[:2], tags[:2], clusterQueries)
	for _, q := range clusterQueries {
		for ri, u := range tc.urls {
			if got := mustGet(t, u+q); got != want[q] {
				t.Errorf("%s via router %d after an ack without the primary: differs from single-node reference\ngot:  %.200s\nwant: %.200s", q, ri, got, want[q])
			}
		}
	}

	// Reads must be strict: the scatter cannot verify completeness.
	resp = doReq(t, faulty, "GET", "/agg", nil)
	if resp.Code != 503 {
		t.Fatalf("scatter with dead peer: %d, want 503", resp.Code)
	}
	if resp.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	// Two dead owners: below quorum, 503 + Retry-After.
	faulty2 := startClusterWithTransportOn(t, tc, router, 3, tc.unreachable(t, primary, other))
	resp = doReq(t, faulty2, "POST", "/ingest", docs[2])
	if resp.Code != 503 {
		t.Fatalf("ingest with 2 dead owners: %d, want 503: %s", resp.Code, resp.Body.String())
	}
	if resp.Header().Get("Retry-After") == "" {
		t.Error("quorum failure 503 without Retry-After")
	}
}

// TestClusterDivergedReplicaReads is the regression test for
// router-dependent reads (N=3, R=2). A second document posted under an
// existing id through the id's primary, with its secondary unreachable,
// misses the quorum (503) and leaves the two replicas different. Every
// router must still answer /agg, /regress and /jobs with the same bytes:
// the reads take each job from its primary, not from whichever replica a
// router happens to see first.
func TestClusterDivergedReplicaReads(t *testing.T) {
	docs, tags := corpusDocs(6)
	tc := startCluster(t, 3, 2, nil)
	for i := 2; i < len(docs); i++ {
		postDoc(t, tc.urls[i%3], docs[i], tags[i])
	}
	const id = "diverged-job"
	postDoc(t, tc.urls[0], docs[0], tags[0]+"&id="+id)

	owners := tc.members[0].Ring().Owners(id, 2)
	primary, secondary := tc.member(owners[0]), tc.member(owners[1])
	faulty := startClusterWithTransportOn(t, tc, primary, 2, tc.unreachable(t, secondary))
	resp := doReq(t, faulty, "POST", "/ingest?id="+id+"&tags="+tags[1], docs[1])
	if resp.Code != 503 {
		t.Fatalf("ingest with the secondary unreachable: %d, want 503: %s", resp.Code, resp.Body.String())
	}
	if a, b := tc.stores[primary].Get(id), tc.stores[secondary].Get(id); a == nil || b == nil || a.Bytes == b.Bytes {
		t.Fatal("the failed write did not leave the two replicas different")
	}

	for _, q := range clusterQueries {
		first := mustGet(t, tc.urls[0]+q)
		for ri := 1; ri < len(tc.urls); ri++ {
			if got := mustGet(t, tc.urls[ri]+q); got != first {
				t.Errorf("%s: router %d answers differently from router 0\ngot:  %.200s\nwant: %.200s", q, ri, got, first)
			}
		}
	}
}

// TestClusterConcurrentReads drives the memoized primary partials from
// many goroutines at once while re-posts advance the members' epochs:
// every read answers 200, and once writes stop every router matches the
// single-node reference. Run under -race.
func TestClusterConcurrentReads(t *testing.T) {
	docs, tags := corpusDocs(8)
	want := referenceAnswers(t, docs, tags, clusterQueries)
	tc := startCluster(t, 3, 2, nil)
	for i, doc := range docs {
		postDoc(t, tc.urls[i%3], doc, tags[i])
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, doc := range docs {
			resp, err := http.Post(tc.urls[(i+1)%3]+"/ingest?tags="+tags[i], "application/xml", bytes.NewReader(doc))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range clusterQueries {
				resp, err := http.Get(tc.urls[(g+i)%3] + q)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("%s: %d", q, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, q := range clusterQueries {
		for ri, u := range tc.urls {
			if got := mustGet(t, u+q); got != want[q] {
				t.Errorf("%s via router %d differs from single-node reference after concurrent reads", q, ri)
			}
		}
	}
}
