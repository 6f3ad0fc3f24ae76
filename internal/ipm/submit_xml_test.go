package ipm

import (
	"strings"
	"testing"
	"time"
)

// makeSubmitProfile builds a two-rank profile whose call sites carry
// command-queue submit accounting alongside the usual timing stats.
func makeSubmitProfile() *JobProfile {
	var ranks []RankProfile
	for r := 0; r < 2; r++ {
		fc := &fakeClock{}
		m := NewMonitor(r, "node0", "app", fc.clock, 0)
		m.Start()
		m.ObserveN("cudaLaunch", 0, Stats{
			Count: 40, Total: 10 * time.Millisecond,
			Min: 200 * time.Microsecond, Max: 300 * time.Microsecond,
			Submits: 40, SubmitStall: time.Duration(r+1) * 3 * time.Millisecond,
		})
		m.ObserveN("cudaMemcpy(H2D)", 131072, Stats{
			Count: 40, Total: 200 * time.Millisecond,
			Min: 4 * time.Millisecond, Max: 6 * time.Millisecond,
			Submits: 40, SubmitStall: time.Duration(r+1) * 4 * time.Millisecond,
		})
		m.Observe("cudaMalloc", 131072, 500*time.Millisecond)
		fc.now = 2 * time.Second
		m.Stop()
		ranks = append(ranks, Snapshot(m))
	}
	return NewJobProfile("app", 2, ranks)
}

// TestSubmitXMLRoundTrip drives the writer and both parsers over a
// profile with submit accounting: the attributes must be emitted and
// every Submits/SubmitStall figure must survive the round trip.
func TestSubmitXMLRoundTrip(t *testing.T) {
	jp := makeSubmitProfile()
	var sb strings.Builder
	if err := WriteXML(&sb, jp); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, attr := range []string{`submit_count="40"`, `submit_stall=`, `submit_stall_total=`} {
		if !strings.Contains(out, attr) {
			t.Errorf("serialized profile missing %s:\n%s", attr, out)
		}
	}
	// Entries without submits must not grow the attributes (omitempty).
	if strings.Count(out, "submit_count") != 4 {
		t.Errorf("want submit_count on exactly the 4 queued entries:\n%s", out)
	}

	check := func(name string, got *JobProfile) {
		t.Helper()
		if got.TotalSubmitStall() != jp.TotalSubmitStall() {
			t.Errorf("%s: TotalSubmitStall = %v, want %v", name, got.TotalSubmitStall(), jp.TotalSubmitStall())
		}
		for i, r := range jp.Ranks {
			gr := got.Ranks[i]
			if gr.SubmitStall != r.SubmitStall {
				t.Errorf("%s: rank %d SubmitStall = %v, want %v", name, i, gr.SubmitStall, r.SubmitStall)
			}
			for j, e := range r.Entries {
				ge := gr.Entries[j]
				if ge.Stats.Submits != e.Stats.Submits || ge.Stats.SubmitStall != e.Stats.SubmitStall {
					t.Errorf("%s: rank %d entry %s submits %d/%v, want %d/%v",
						name, i, e.Sig.Name, ge.Stats.Submits, ge.Stats.SubmitStall,
						e.Stats.Submits, e.Stats.SubmitStall)
				}
			}
		}
	}
	strict, err := ParseXML(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	check("strict", strict)
	tolerant, rep, err := ParseXMLTolerant([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Warnings) != 0 {
		t.Errorf("tolerant parse warned on clean output: %q", rep.Warnings)
	}
	check("tolerant", tolerant)
}

// TestScanSubmitAttrs drives the streaming scanner over a document with
// submit attributes: the task's submit_stall_total and each entry's
// submit_count/submit_stall must reach the sink.
func TestScanSubmitAttrs(t *testing.T) {
	doc := `<?xml version="1.0" encoding="UTF-8"?>
<ipm_log command="./a" ntasks="1" nhosts="1" wallclock="2.0">
<task mpi_rank="0" host="h0" wallclock="2.0" submit_stall_total="0.25">
<region name="ipm_global">
<func name="cudaLaunch" count="4" ttot="0.01" submit_count="4" submit_stall="0.002"/>
</region>
</task>
</ipm_log>`
	sink := &countSink{}
	var rep ParseReport
	ok, err := scanOnly([]byte(doc), sink, &rep)
	if !ok || err != nil {
		t.Fatalf("scanner bailed on clean doc with submit attrs: ok=%v err=%v", ok, err)
	}
	if sink.lastTask.SubmitStall != 250*time.Millisecond {
		t.Errorf("task stall = %v, want 250ms", sink.lastTask.SubmitStall)
	}
	if sink.lastEntry.submits != 4 || sink.lastEntry.submitStall != 2*time.Millisecond {
		t.Errorf("entry submits = %d/%v, want 4/2ms", sink.lastEntry.submits, sink.lastEntry.submitStall)
	}
}

// TestSubmitStallRederive pins the tolerant parser's two stall sources:
// the task-level submit_stall_total attribute wins when present, and
// logs predating it fall back to summing the per-entry attributes.
func TestSubmitStallRederive(t *testing.T) {
	doc := `<ipm_log command="./a" ntasks="2" nhosts="1" wallclock="2.0">
<task mpi_rank="0" host="h0" wallclock="2.0" submit_stall_total="0.5">
<region name="ipm_global">
<func name="cudaLaunch" count="4" ttot="0.01" submit_count="4" submit_stall="0.002"/>
</region>
</task>
<task mpi_rank="1" host="h1" wallclock="2.0">
<region name="ipm_global">
<func name="cudaLaunch" count="4" ttot="0.01" submit_count="4" submit_stall="0.002"/>
<func name="cudaMemcpy(H2D)" count="2" ttot="0.01" submit_count="2" submit_stall="0.003"/>
</region>
</task>
</ipm_log>`
	jp, _, err := ParseXMLTolerant([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0: the attribute (500ms) wins over the 2ms entry sum.
	if got := jp.Ranks[0].SubmitStall; got != 500*time.Millisecond {
		t.Errorf("rank 0 stall = %v, want the task attribute (500ms)", got)
	}
	// Rank 1: no task attribute, so stall re-derives from the entries.
	if got := jp.Ranks[1].SubmitStall; got != 5*time.Millisecond {
		t.Errorf("rank 1 stall = %v, want 5ms entry sum", got)
	}
}

// TestSubmitAttrsAbsentForOldReports locks backward compatibility in
// both directions: profiles without queue accounting serialize without
// any submit_* attribute, and pre-queue logs parse to zero stall.
func TestSubmitAttrsAbsentForOldReports(t *testing.T) {
	jp := makeJobProfile() // no submit stats anywhere
	var sb strings.Builder
	if err := WriteXML(&sb, jp); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "submit_") {
		t.Errorf("profile without queue stats emitted submit attrs:\n%s", sb.String())
	}
	got, _, err := ParseXMLTolerant([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalSubmitStall() != 0 {
		t.Errorf("pre-queue log parsed to stall %v, want 0", got.TotalSubmitStall())
	}
	for _, r := range got.Ranks {
		for _, e := range r.Entries {
			if e.Stats.Submits != 0 || e.Stats.SubmitStall != 0 {
				t.Errorf("entry %s gained submit stats %d/%v from a pre-queue log",
					e.Sig.Name, e.Stats.Submits, e.Stats.SubmitStall)
			}
		}
	}
}
