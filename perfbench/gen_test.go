package main

import (
	"bytes"
	"reflect"
	"testing"

	"ipmgo/internal/profstore"
)

func TestDeckDeterministicPerSeed(t *testing.T) {
	a, b, c := deck(7), deck(7), deck(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different decks")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 drew the same deck")
	}
	if len(c) != len(strata)*len(devices) {
		t.Fatalf("deck has %d jobs, want every stratum on every device", len(c))
	}
	queue := 0
	for i, js := range c {
		st := strata[i/len(devices)]
		if js.Kind != st.kind || js.Nodes != st.nodes || js.RPN != st.rpn || js.Device != devices[i%len(devices)] {
			t.Errorf("job %d is %s on %dx%d %s, stratum says %+v", i, js.Kind, js.Nodes, js.RPN, js.Device, st)
		}
		if js.Queue {
			queue++
		}
		if _, _, err := js.config(); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	if queue != len(c)/2 {
		t.Errorf("%d of %d jobs queue; want half", queue, len(c))
	}
}

func TestCorpusDrawsDeterministicAndBalanced(t *testing.T) {
	c := &corpus{order: drawOrders(3)}
	again := &corpus{order: drawOrders(3)}
	other := &corpus{order: drawOrders(4)}
	n := len(c.order[0])
	counts := make([]int, len(strata))
	same := true
	for k := 0; k < n; k++ {
		d := c.draw(5, k)
		if d != again.draw(5, k) {
			t.Fatalf("draw %d differs between two corpora of one seed", k)
		}
		same = same && d == other.draw(5, k)
		counts[d.Base]++
	}
	if same {
		t.Error("seeds 3 and 4 drew the same stream")
	}
	for i, st := range strata {
		if counts[i] != st.weight {
			t.Errorf("base %d drawn %d times in one round, want its weight %d", i, counts[i], st.weight)
		}
	}
}

func TestRenderStampsDistinctDocuments(t *testing.T) {
	base := []byte(`<?xml version="1.0"?><ipm_log version="2.0" command="./x" ntasks="1" nhosts="1" start="` + stampPlaceholder + `" wallclock="1"></ipm_log>`)
	c := &corpus{bases: [][]byte{base}, offset: []int{bytes.Index(base, []byte(stampPlaceholder))}}
	ids := map[string]bool{}
	for _, d := range []docRef{{Stream: 0, K: 0}, {Stream: 0, K: 1}, {Stream: 1, K: 0}, {Stream: 59, K: 999_999_999}} {
		doc := c.render(d, nil)
		if len(doc) != len(base) {
			t.Fatalf("stamp changed the document length: %d vs %d", len(doc), len(base))
		}
		ids[profstore.DeriveID(doc)] = true
	}
	if len(ids) != 4 {
		t.Errorf("4 stamps gave %d distinct ids", len(ids))
	}
}

func TestQueryMixExactPerBlock(t *testing.T) {
	ids := []string{"a", "b", "c"}
	a, b := newQueryMixer(9, 120, ids), newQueryMixer(9, 120, ids)
	counts := map[string]int{}
	for k := 0; k < 5*len(mixBlock); k++ {
		op := a.next()
		if op != b.next() {
			t.Fatalf("op %d differs between two mixers of one seed", k)
		}
		counts[op.class]++
	}
	want := map[string]int{"agg": 5 * pctAgg / 5, "regress": 5 * pctRegress / 5, "jobs": 5 * pctJobs / 5, "job": 5 * pctJob / 5, "write": 5 * pctWrite / 5}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("five blocks drew %v, want %v", counts, want)
	}
}
