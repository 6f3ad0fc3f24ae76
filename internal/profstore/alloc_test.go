//go:build !race

package profstore

import "testing"

// TestIngestSteadyStateAllocs pins the streaming ingest allocation
// budget. The scratch pool and interned-name cache make a warmed-up
// ingest nearly allocation-free: what remains is the Job value, the
// retained raw copy of the document, the tag slice and the rollup's
// output maps. The bound is deliberately loose (the measured figure is
// ~17) but far below the ~1100 allocs/op of a DOM decode — a document
// falling off the byte scanner onto encoding/xml's per-token boxing
// trips it immediately.
//
// Excluded under -race: the race runtime adds bookkeeping allocations
// that would make the pin meaningless.
func TestIngestSteadyStateAllocs(t *testing.T) {
	doc := syntheticXML(t, 42, 0)
	s := New()
	if _, err := s.Ingest(doc, "warm", nil); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := s.Ingest(doc, "warm", nil); err != nil {
			t.Fatal(err)
		}
	})
	if got > 40 {
		t.Errorf("steady-state ingest allocates %.1f allocs/op, want <= 40 "+
			"(streaming fast path disengaged?)", got)
	}
}
