package ipm

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// scanOnly runs the byte scanner without the token-walk fallback:
// ok=false means it bailed.
func scanOnly(data []byte, sink ScanSink, rep *ParseReport) (ok bool, err error) {
	s := scanner{data: data}
	s.init(sink, rep)
	if !s.run() {
		return false, nil
	}
	return true, s.finish()
}

// walkOnly runs the non-strict encoding/xml token walk alone.
func walkOnly(data []byte, sink ScanSink, rep *ParseReport) error {
	var d decoder
	d.walk(data, sink, rep)
	return d.finish()
}

// recordSink records every event with every field, byte slices copied
// (rendered), so two tokenizers' event streams compare with ==.
type recordSink struct{ events []string }

func (r *recordSink) Reset()                { r.events = nil }
func (r *recordSink) Header(h *ScanHeader)  { r.add("header", *h) }
func (r *recordSink) TaskStart(t *ScanTask) { r.add("task", *t) }
func (r *recordSink) Entry(e *ScanEntry)    { r.add("entry", *e) }
func (r *recordSink) TaskEnd()              { r.add("end", nil) }

func (r *recordSink) add(kind string, v any) {
	r.events = append(r.events, fmt.Sprintf("%s %+v", kind, v))
}

// fixtures returns every XML fixture the repo carries.
func fixtures(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, dir := range []string{"../profstore/testdata", "../ipmparse/testdata"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.xml"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[p] = b
		}
	}
	if len(out) == 0 {
		t.Fatal("no XML fixtures found")
	}
	return out
}

// FuzzScanVsWalk is the event-level differential fuzzer of the two
// tokenizers: on every input the scanner accepts, its events (every
// header, task and entry field), warnings, truncation flag, task counts
// and error must be exactly the token walk's. Every reader of the log
// consumes these events, so this is what keeps the fast path invisible.
func FuzzScanVsWalk(f *testing.F) {
	for _, doc := range fixtures(f) {
		f.Add(doc)
	}
	for _, doc := range []string{
		`<ipm_log ntasks="2"><task mpi_rank="0"><region name="r"><func name="MPI_Send" ttot="1.5"/></region></task></ipm_log>`,
		`<?xml version="1.0" encoding="UTF-8"?><ipm_log/>`,
		`<?xml version="1.1"?><ipm_log ntasks="1"><task mpi_rank="0"/></ipm_log>`,
		`<?xml encoding=x encoding="latin1"?><ipm_log ntasks="1"><task mpi_rank="0"/></ipm_log>`,
		`<?xml version=1.1 version='1.0'?><ipm_log/>`,
		`<ipm_log><task mpi_rank="0"><task mpi_rank="1"></task></task></ipm_log>`,
		`<task><ipm_log/></task><ipm_log><region><func/></region><func name="x" count="y"/></ipm_log>`,
		`<ipm_log ntasks="1"><task status="lost" lost_at="2.5" lost_reason="watchdog" hashtable_probes="-1"><region><func count="1e3" ttot="x" name="k"/></region></task></ipm_log>`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var scanned, walked recordSink
		var srep, wrep ParseReport
		ok, serr := scanOnly(data, &scanned, &srep)
		if !ok {
			return
		}
		werr := walkOnly(data, &walked, &wrep)
		if fmt.Sprint(serr) != fmt.Sprint(werr) {
			t.Fatalf("error: scan %v, walk %v\ninput: %q", serr, werr, data)
		}
		if !reflect.DeepEqual(scanned.events, walked.events) {
			t.Fatalf("events diverge\nscan: %q\nwalk: %q\ninput: %q", scanned.events, walked.events, data)
		}
		if !reflect.DeepEqual(srep, wrep) {
			t.Fatalf("report diverges\nscan: %+v\nwalk: %+v\ninput: %q", srep, wrep, data)
		}
	})
}

// TestScanFastPathEngages pins that the clean fixtures actually take
// the scanner — without this, a scanner that bails on everything would
// pass every differential test by vacuity.
func TestScanFastPathEngages(t *testing.T) {
	for _, name := range []string{"base.xml", "head.xml"} {
		doc, err := os.ReadFile(filepath.Join("..", "profstore", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var rep ParseReport
		if ok, err := scanOnly(doc, &recordSink{}, &rep); !ok || err != nil {
			t.Errorf("%s: scanner bailed (ok=%v err=%v) on a clean fixture", name, ok, err)
		}
	}
}

// everyAttributeProfile sets every attribute the log carries to a
// non-zero value: a named region beside the global one, fidelity and
// fault counters, submit and energy accounting, and a lost rank.
func everyAttributeProfile() *JobProfile {
	entries := func(k int64) []Entry {
		return []Entry{
			{Sig: Sig{Name: "MPI_Send", Bytes: 1024 * k, Region: GlobalRegion}, Stats: Stats{
				Count: 10 * k, Total: 1500 * time.Millisecond, Min: 100 * time.Millisecond, Max: 300 * time.Millisecond,
				Errors: k, Submits: 3 * k, SubmitStall: 2 * time.Millisecond, Energy: 250_000_000 * k,
			}},
			{Sig: Sig{Name: "cudaMemcpy(H2D)", Bytes: 131072, Region: "solve"}, Stats: Stats{
				Count: 40, Total: 200 * time.Millisecond, Min: 4 * time.Millisecond, Max: 6 * time.Millisecond,
				Errors: 2, Submits: 40, SubmitStall: 4 * time.Millisecond, Energy: 1_234_567_891,
			}},
		}
	}
	ranks := []RankProfile{{
		Rank: 1, Host: "dirac1", Wallclock: 3250 * time.Millisecond, Entries: entries(1),
		Overflow: 3, LoadFactor: 0.75, Probes: 12345,
		Errors: 7, MonitorErrors: 2, SubmitStall: 6 * time.Millisecond,
		Device: "Tesla C2050", Energy: 76_500_000_000,
	}, {
		Rank: 2, Host: "dirac2", Wallclock: 2 * time.Second, Entries: entries(2),
		Overflow: 1, LoadFactor: 0.5, Probes: 99,
		Errors: 4, MonitorErrors: 1, SubmitStall: 8 * time.Millisecond,
		Device: "A100-SXM4-40GB", Energy: 1_500_000_000,
		Lost: true, LostAt: 2500 * time.Millisecond, LostReason: "watchdog",
	}}
	jp := NewJobProfile("./hpl -n 4", 2, ranks)
	jp.Start, jp.Stop = "Mon Jan 10 09:00:00 2011", "Mon Jan 10 09:00:04 2011"
	return jp
}

// TestXMLRoundTripEveryAttribute: both parsers must give back exactly
// the profile the writer wrote. decoder.attr is the only place an
// attribute maps to a field, so this is what catches a wrong mapping.
func TestXMLRoundTripEveryAttribute(t *testing.T) {
	jp := everyAttributeProfile()
	var sb strings.Builder
	if err := WriteXML(&sb, jp); err != nil {
		t.Fatal(err)
	}
	strict, err := ParseXML(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strict, jp) {
		t.Errorf("strict round trip\n got: %+v\nwant: %+v", strict, jp)
	}
	tolerant, rep, err := ParseXMLTolerant([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 0 || rep.Truncated {
		t.Errorf("tolerant parse made concessions on clean output: %+v", rep)
	}
	if !reflect.DeepEqual(tolerant, jp) {
		t.Errorf("tolerant round trip\n got: %+v\nwant: %+v", tolerant, jp)
	}
}

// TestParseXMLErrors pins the strict contract: what ParseXML rejects
// and what it accepts. "changed" marks the classes whose verdict
// differs from decoding into XMLLog with encoding/xml's Decode, which
// ignored misplaced elements and trimmed numeric attributes.
func TestParseXMLErrors(t *testing.T) {
	const task = `<task mpi_rank="0" host="h" wallclock="1"><region name="ipm_global"><func name="f" count="1" ttot="0.5"/></region></task>`
	for _, tc := range []struct {
		name   string
		doc    string
		accept bool
	}{
		{"truncated", `<ipm_log ntasks="1">` + task[:40], false},
		{"empty", ``, false},
		{"not xml", `not xml`, false},
		{"bad numeric", `<ipm_log ntasks="1">` + strings.Replace(task, `count="1"`, `count="x"`, 1) + `</ipm_log>`, false},
		{"unquoted attribute", `<ipm_log ntasks=1>` + task + `</ipm_log>`, false},
		{"wrong root", `<wrong><ipm_log/></wrong>`, false},
		{"wrong empty root", `<wrong/>`, false},
		{"unsupported version", `<?xml version="1.1"?><ipm_log/>`, false},
		{"func outside region (changed)", `<ipm_log ntasks="1"><task mpi_rank="0"><func name="f"/></task></ipm_log>`, false},
		{"region outside task (changed)", `<ipm_log><region name="r"/></ipm_log>`, false},
		{"nested ipm_log (changed)", `<ipm_log><ipm_log/></ipm_log>`, false},
		{"task inside task (changed)", `<ipm_log ntasks="2"><task mpi_rank="0"><task mpi_rank="1"/></task></ipm_log>`, false},
		{"padded numeric (changed)", `<ipm_log ntasks=" 1">` + task + `</ipm_log>`, false},
		{"empty numeric (changed)", `<ipm_log ntasks="">` + task + `</ipm_log>`, false},

		{"clean", `<ipm_log ntasks="1">` + task + `</ipm_log>`, true},
		{"trailing content", `<ipm_log ntasks="1">` + task + `</ipm_log><junk attr=unquoted`, true},
		{"prolog", `<?xml version="1.0" encoding="UTF-8"?><!-- c --><ipm_log ntasks="1">` + task + `</ipm_log>`, true},
		{"unknown elements", `<ipm_log ntasks="1"><meta x="1"><y/></meta>` + task + `</ipm_log>`, true},
		{"ntasks above tasks", `<ipm_log ntasks="4">` + task + `</ipm_log>`, true},
	} {
		jp, err := ParseXML(strings.NewReader(tc.doc))
		if tc.accept != (err == nil) {
			t.Errorf("%s: accept=%v, err=%v", tc.name, tc.accept, err)
			continue
		}
		if err == nil && (len(jp.Ranks) != 1 || jp.Ranks[0].Entries[0].Stats.Count != 1) {
			t.Errorf("%s: ranks %+v", tc.name, jp.Ranks)
		}
	}
	jp, err := ParseXML(strings.NewReader(`<ipm_log ntasks="4">` + task + `</ipm_log>`))
	if err != nil {
		t.Fatal(err)
	}
	if jp.ExpectedRanks != 4 {
		t.Errorf("ntasks above tasks: ExpectedRanks=%d, want 4", jp.ExpectedRanks)
	}
}
