package profstore

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipmgo/internal/faultsim"
	"ipmgo/internal/telemetry"
)

// faultyStore opens a WAL store whose append path is wrapped by the
// given disk-fault plan.
func faultyStore(t *testing.T, planJSON string) (*Store, string) {
	t.Helper()
	plan, err := faultsim.ParseDiskPlan([]byte(planJSON))
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(t.TempDir(), "store.wal")
	s, _, err := OpenStore(wal, StoreOptions{
		WrapWAL: func(inner WriteSyncer) WriteSyncer { return plan.Wrap(inner) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, wal
}

// TestWALFaultFlipsReadOnly drives the store into an injected EIO on
// the third WAL append: the failing ingest and everything after it must
// return ErrReadOnly, queries must keep working, and the two
// acknowledged ingests must survive a reopen without the fault.
func TestWALFaultFlipsReadOnly(t *testing.T) {
	s, wal := faultyStore(t, `{"faults":[{"op":"write","at":3,"kind":"eio","count":-1}]}`)
	for i := 0; i < 2; i++ {
		if _, err := s.Ingest(syntheticXML(t, 5, i), "", nil); err != nil {
			t.Fatalf("ingest %d before the fault: %v", i, err)
		}
	}
	if ro, _ := s.ReadOnly(); ro {
		t.Fatal("store read-only before any fault fired")
	}
	if _, err := s.Ingest(syntheticXML(t, 5, 2), "", nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ingest at the injected EIO: %v, want ErrReadOnly", err)
	}
	ro, reason := s.ReadOnly()
	if !ro || !strings.Contains(reason, "append failed") {
		t.Errorf("ReadOnly() = %v, %q after WAL EIO", ro, reason)
	}
	if _, err := s.Ingest(syntheticXML(t, 5, 3), "", nil); !errors.Is(err, ErrReadOnly) {
		t.Errorf("ingest after degradation: %v, want ErrReadOnly", err)
	}
	if s.WALErrors() == 0 {
		t.Error("WAL failure not counted")
	}
	// Reads keep working on the degraded store; no acked job was lost.
	if s.Len() != 2 {
		t.Errorf("degraded corpus len %d, want the 2 acked jobs", s.Len())
	}
	before := aggJSON(t, s)
	if _, err := s.Snapshot(); !errors.Is(err, ErrReadOnly) {
		t.Errorf("snapshot on degraded store: %v, want ErrReadOnly", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("closing degraded store: %v", err)
	}

	s2, st, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st.Recovered != 2 || s2.Len() != 2 {
		t.Fatalf("recovered %d jobs (stats %+v), want both acked ingests", s2.Len(), st)
	}
	if !bytes.Equal(before, aggJSON(t, s2)) {
		t.Error("aggregate differs after recovering the degraded store's WAL")
	}
}

// TestShortWriteDegradesWithoutCorruption injects a torn append (half
// the frame reaches disk): the store degrades, and replay detects the
// torn frame by CRC instead of mistaking it for data.
func TestShortWriteDegradesWithoutCorruption(t *testing.T) {
	s, wal := faultyStore(t, `{"faults":[{"op":"write","at":2,"kind":"short"}]}`)
	if _, err := s.Ingest(syntheticXML(t, 5, 0), "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(syntheticXML(t, 5, 1), "", nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("torn append: %v, want ErrReadOnly", err)
	}
	s.Close()

	s2, st, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st.Recovered != 1 || st.Skipped != 1 {
		t.Errorf("recovery stats %+v, want 1 recovered + 1 torn frame skipped", st)
	}
}

// TestServerReadOnlySurface exercises the HTTP view of degradation:
// ingest answers 503 with Retry-After, /readyz flips, /metrics exposes
// the gauge, and reads still answer 200.
func TestServerReadOnlySurface(t *testing.T) {
	s, _ := faultyStore(t, `{"faults":[{"op":"sync","at":2,"kind":"full","count":-1}]}`)
	defer s.Close()
	srv := NewServer(s, telemetry.NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(doc []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest", "application/xml", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post(syntheticXML(t, 6, 0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest: %d", resp.StatusCode)
	}
	resp := post(syntheticXML(t, 6, 1)) // injected ENOSPC on fsync
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest at disk-full: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz on degraded store: %v %d, want 503", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz must stay 200 (process is alive): %v %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if code, body := get(t, ts.URL+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics on degraded store: %d", code)
	} else if !strings.Contains(string(body), MetricReadonly+" 1") {
		t.Errorf("/metrics missing %s 1", MetricReadonly)
	}
	if code, body := get(t, ts.URL+"/agg"); code != http.StatusOK {
		t.Errorf("reads must survive degradation: %d %s", code, body)
	}
}

// TestCompactEndpoint drives POST /compact and checks the WAL actually
// shrank.
func TestCompactEndpoint(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "store.wal")
	s, _, err := OpenStore(wal, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ingestN(t, s, 3)
	srv := NewServer(s, telemetry.NewRegistry())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /compact: %d", resp.StatusCode)
	}
	if st, err := os.Stat(wal); err != nil || st.Size() != 0 {
		t.Errorf("WAL not truncated by /compact: %v, %d bytes", err, st.Size())
	}
	if _, err := os.Stat(snapshotPath(wal, 1)); err != nil {
		t.Errorf("snapshot 1 missing after /compact: %v", err)
	}
	// /readyz stays 200: compaction is routine maintenance, not distress.
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after compact: %v %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}
