package profstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ipmgo/internal/ipm"
)

// This file pins rollupSink, the ingest-time reduction of the decoder's
// event stream, to its reference: computeRollup, a flat fold over the
// JobProfile that Job.Profile() decodes from the same bytes. The two
// tokenizers behind ipm.DecodeXML are compared event by event in ipm
// (FuzzScanVsWalk); FuzzScanVsParse fuzzes this reduction.

// computeRollup reduces one job profile. jobID labels the imbalance rows.
func computeRollup(jp *ipm.JobProfile, jobID string) *rollup {
	ro := &rollup{
		sites:   make(map[string]ipm.Stats),
		kernels: make(map[string]ipm.Stats),
	}
	for _, r := range jp.Ranks {
		ro.wall += r.Wallclock
		ro.stall += r.SubmitStall
		ro.energy += r.Energy
		if r.Lost {
			ro.lostRanks++
		}
		for _, e := range r.Entries {
			name := e.Sig.Name
			switch {
			case isGPUExec(name):
				ro.gpu += e.Stats.Total
			case name == ipm.HostIdleName:
				ro.idle += e.Stats.Total
			case e.Sig.Pseudo():
				// Per-kernel pseudo entries are tallied below; other
				// pseudo entries only appear in the call-site table.
			case isTransfer(name):
				ro.xfer += e.Stats.Total
			}
			if ipm.Classify(name) == ipm.DomainMPI {
				ro.mpi += e.Stats.Total
			}
			if k := kernelOf(name); k != "" {
				st := ro.kernels[k]
				st.Merge(e.Stats)
				ro.kernels[k] = st
				continue // per-kernel entries double the stream totals; keep them out of call sites
			}
			st := ro.sites[name]
			st.Merge(e.Stats)
			ro.sites[name] = st
		}
	}
	if len(jp.Ranks) > 1 {
		for _, ft := range jp.FuncTotals() {
			ro.imb = append(ro.imb, ImbalanceAgg{
				Name: ft.Name, MaxOverAvg: jp.Imbalance(ft.Name), WorstJob: jobID,
			})
		}
	}
	return ro
}

// isGPUExec is the string twin of ingest.go's isGPUExecB.
func isGPUExec(name string) bool {
	return strings.HasPrefix(name, "@CUDA_EXEC_STRM") && !strings.Contains(name, ":")
}

// rerollFromDOM replaces every job's ingest-time rollup with the
// reference computeRollup over its decoded profile, so a test can run
// the same queries over both reductions.
func rerollFromDOM(s *Store) {
	for _, j := range s.List() {
		j.rollup = computeRollup(j.Profile(), j.ID)
	}
	s.invalidateMemo()
}

// diffCorpus returns every XML fixture the repo carries, plus
// truncations and point mutations of each — the inputs most likely to
// expose a divergence between the scanner's bail-out rules and the
// decoder's actual tolerance.
func diffCorpus(t testing.TB) [][]byte {
	t.Helper()
	var corpus [][]byte
	for _, glob := range []string{"testdata/*.xml", filepath.Join("..", "ipmparse", "testdata", "*.xml")} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, b)
		}
	}
	if len(corpus) == 0 {
		t.Fatal("no XML fixtures found")
	}
	var derived [][]byte
	for _, doc := range corpus {
		for _, frac := range []int{1, 2, 3, 5, 7} {
			derived = append(derived, doc[:len(doc)*frac/8])
		}
		for _, mut := range []struct {
			off  int
			repl byte
		}{{len(doc) / 3, '<'}, {len(doc) / 2, '"'}, {2 * len(doc) / 3, '&'}, {len(doc) / 4, 0x80}} {
			m := append([]byte(nil), doc...)
			m[mut.off] = mut.repl
			derived = append(derived, m)
		}
	}
	// <?xml PIs that encoding/xml rejects: unless the scanner bails on
	// them too, ingest keeps a job whose Profile() has no ranks.
	derived = append(derived,
		[]byte(`<?xml version="1.1"?><ipm_log ntasks="1"><task mpi_rank="0"/></ipm_log>`),
		[]byte(`<?xml encoding=x encoding="latin1"?><ipm_log ntasks="1"><task mpi_rank="0"/></ipm_log>`))
	return append(corpus, derived...)
}

// diffScan compares DecodeXML + rollupSink, the ingest route, against
// ParseXMLTolerant + computeRollup, the Job.Profile() route, on one
// input: the same error, report, command, rank count and rollup.
func diffScan(t testing.TB, data []byte) {
	t.Helper()
	sink := newRollupSink()
	var rep ipm.ParseReport
	serr := ipm.DecodeXML(data, sink, &rep)
	jp, drep, derr := ipm.ParseXMLTolerant(data)
	if fmt.Sprint(serr) != fmt.Sprint(derr) {
		t.Fatalf("ingest error %v, parse error %v\ninput: %q", serr, derr, data)
	}
	if serr != nil {
		return
	}
	if !reflect.DeepEqual(rep, *drep) {
		t.Fatalf("report diverges\ningest: %+v\nparse:  %+v\ninput: %q", rep, *drep, data)
	}
	if sink.command != jp.Command {
		t.Fatalf("command %q vs %q\ninput: %q", sink.command, jp.Command, data)
	}
	if sink.tasks != len(jp.Ranks) {
		t.Fatalf("tasks %d vs %d ranks\ninput: %q", sink.tasks, len(jp.Ranks), data)
	}
	got := sink.build("j")
	want := computeRollup(jp, "j")
	if !rollupEqual(got, want) {
		t.Fatalf("rollup diverges\ningest: %+v\nparse:  %+v\ninput: %q", got, want, data)
	}
}

// rollupEqual compares two rollups field by field; empty and nil maps
// and imbalance slices are interchangeable.
func rollupEqual(a, b *rollup) bool {
	if a.wall != b.wall || a.gpu != b.gpu || a.xfer != b.xfer ||
		a.idle != b.idle || a.mpi != b.mpi || a.stall != b.stall ||
		a.energy != b.energy || a.lostRanks != b.lostRanks {
		return false
	}
	if len(a.sites) != len(b.sites) || len(a.kernels) != len(b.kernels) ||
		len(a.imb) != len(b.imb) {
		return false
	}
	for k, v := range a.sites {
		if b.sites[k] != v {
			return false
		}
	}
	for k, v := range a.kernels {
		if b.kernels[k] != v {
			return false
		}
	}
	for i, v := range a.imb {
		if b.imb[i] != v {
			return false
		}
	}
	return true
}

func TestScanVsParseCorpus(t *testing.T) {
	for _, doc := range diffCorpus(t) {
		diffScan(t, doc)
	}
}

// TestFormatIDMatchesDeriveID pins the inlined FNV-1a + hex rendering
// to the exported DeriveID (part of the WAL/API contract).
func TestFormatIDMatchesDeriveID(t *testing.T) {
	for _, in := range []string{"", "ipm", "<ipm_log/>", string(fixture(t, "base.xml"))} {
		h := prescanHash([]byte(in))
		if got, want := formatID(h), DeriveID([]byte(in)); got != want {
			t.Errorf("formatID(%q) = %s, DeriveID = %s", in, got, want)
		}
	}
}

// TestAppendWALRecordMatchesJSON pins the hand-rolled WAL encoder to
// encoding/json byte for byte, including the HTML escaping Marshal
// applies, and its refusal on non-ASCII input.
func TestAppendWALRecordMatchesJSON(t *testing.T) {
	cases := []struct {
		id   string
		tags []string
		xml  string
	}{
		{"j1", nil, "<ipm_log/>"},
		{"j2", []string{"a", "b"}, "<a x=\"1\">text</a>"},
		{"quote\"back\\slash", []string{"<tag>"}, "line1\nline2\r\ttab"},
		{"ctl", nil, "a\x01b\x1fc\x7fd"},
		{"amp", []string{"x&y"}, "<a b=\"1>2\"/>"},
		{"", []string{}, ""},
	}
	for _, tc := range cases {
		rec, ok := appendWALRecord(nil, tc.id, tc.tags, []byte(tc.xml))
		if !ok {
			t.Errorf("fast encoder refused ASCII input %+v", tc)
			continue
		}
		m, err := json.Marshal(walRecord{ID: tc.id, Tags: tc.tags, XML: tc.xml})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec, m) {
			t.Errorf("WAL encoding diverges\nfast: %s\njson: %s", rec, m)
		}
	}
	if _, ok := appendWALRecord(nil, "j", nil, []byte("caf\xc3\xa9")); ok {
		t.Error("fast encoder accepted non-ASCII input; Marshal's UTF-8 handling differs")
	}
}

// FuzzScanVsParse is the differential fuzzer of the two rollup
// builders: any input must produce the same rollup, warnings and error
// through ingest's reduction as through computeRollup over the decoded
// profile, and any ASCII input must WAL-encode identically to
// encoding/json.
func FuzzScanVsParse(f *testing.F) {
	for _, doc := range diffCorpus(f) {
		if len(doc) <= 8<<10 {
			f.Add(doc)
		}
	}
	f.Add([]byte(`<ipm_log ntasks="2"><task rank="0"><region><func name="MPI_Send" t="1.5"/></region></task></ipm_log>`))
	f.Add([]byte(`<?xml version="1.0" encoding="UTF-8"?><ipm_log/>`))
	f.Add([]byte(`<ipm_log><task rank="0"><task rank="1"></task></ipm_log>`))
	f.Add([]byte(`<ipm_log cmd="a b"><func name="x"/><region></region></ipm_log>`))
	f.Add([]byte(`<ipm_log ntasks="1"><task energy_total="1.5" device="X"><region><func name="k" t="1" energy="0.5"/></region></task></ipm_log>`))
	f.Add([]byte(`<ipm_log ntasks="1"><task><region><func name="k" t="1" energy="2.25"/></region></task></ipm_log>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			return
		}
		diffScan(t, data)
		if rec, ok := appendWALRecord(nil, "j", []string{"t"}, data); ok {
			m, err := json.Marshal(walRecord{ID: "j", Tags: []string{"t"}, XML: string(data)})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, m) {
				t.Errorf("WAL encoding diverges\nfast: %s\njson: %s", rec, m)
			}
		}
	})
}
