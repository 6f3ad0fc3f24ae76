package storecluster

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ipmgo/internal/ipm"
	"ipmgo/internal/profstore"
)

// TestSoakWaitReadyBoundedByDeadline: a member that accepts connections
// but never answers must not hang the harness past its deadline.
func TestSoakWaitReadyBoundedByDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn // held open, never written
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	defer func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	f := &fleet{ctx: ctx, client: &http.Client{Timeout: requestTimeout}}
	start := time.Now()
	addr := ln.Addr().String()
	err = f.waitReady(&member{addr: addr, url: "http://" + addr})
	if err == nil {
		t.Fatal("waitReady succeeded against a member that never answers")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("waitReady returned %v after a 300ms deadline", took)
	}
}

// TestSoakGateCatchesViolations: the gate fails on a lost job, on a job
// the corpus never had, and on a member whose answers differ from the
// reference even though every id is present; it passes on the exact
// corpus.
func TestSoakGateCatchesViolations(t *testing.T) {
	docs, want, err := renderCorpus(2011, 6)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	m := &member{addr: addr, url: "http://" + addr, wal: filepath.Join(t.TempDir(), "m.wal"), compactEvery: -1}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f := &fleet{ctx: ctx, client: &http.Client{Timeout: requestTimeout}, members: []*member{m}}
	if err := f.startAll(); err != nil {
		t.Fatal(err)
	}
	defer m.kill()
	ingest := func(xml []byte, id string, tags ...string) {
		t.Helper()
		if _, err := m.store.Ingest(xml, id, tags); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(what, substr string) {
		t.Helper()
		err := f.gate(docs, want)
		if substr == "" {
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			return
		}
		if err == nil || !strings.Contains(err.Error(), substr) {
			t.Fatalf("%s: gate error %v, want one containing %q", what, err, substr)
		}
	}

	for _, d := range docs[:5] {
		ingest(d.xml, d.id, d.tags...)
	}
	expect("one job missing", "1 acknowledged job(s) lost")
	last := docs[5]
	ingest(last.xml, last.id, "soak") // present, but without its batch tag
	expect("one job mistagged", "/jobs from member 0 differs")
	ingest(last.xml, last.id, last.tags...)
	expect("exact corpus", "")

	var buf bytes.Buffer
	if err := ipm.WriteXML(&buf, profstore.SyntheticProfile(2011, 6)); err != nil {
		t.Fatal(err)
	}
	ingest(buf.Bytes(), profstore.DeriveID(buf.Bytes()), "soak")
	expect("one extra job", "sees 7 jobs, want 6")
}

// TestSoakRejectsInProcessKills: in-process members cannot be SIGKILLed,
// so kill cycles without a child ServerCmd are refused up front.
func TestSoakRejectsInProcessKills(t *testing.T) {
	if _, err := Soak(SoakOptions{Cycles: 1, Dir: t.TempDir()}); err == nil {
		t.Fatal("Soak accepted kill cycles with in-process members")
	}
}
