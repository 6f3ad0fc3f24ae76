package profstore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPartialMerge is the partial-merge twin of FuzzRollupWire: a corpus
// of the fuzz document plus fixed companions is split into k disjoint
// parts (k, the split and the merge order chosen by the fuzzer); each
// part's partials go through EncodePartials/DecodePartials and are
// merged in the fuzz order. /agg at several TopN and /regress must be
// byte-identical to one store holding everything — the contract the
// cluster's partial path rests on.
func FuzzPartialMerge(f *testing.F) {
	for i, name := range []string{"base.xml", "head.xml", "energy.xml", "submit.xml"} {
		if data, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			f.Add(data, uint8(i+1), uint64(i))
		}
	}
	f.Add(fixedSyntheticXML(f, 7), uint8(3), uint64(42))
	f.Add([]byte("<ipm_log><job username=\"u\" nhosts=\"1\"></job></ipm_log>"), uint8(2), uint64(7))

	energy, err := os.ReadFile(filepath.Join("testdata", "energy.xml"))
	if err != nil {
		f.Fatal(err)
	}
	// The energy document twice, under two ids, so energy rows from
	// different parts must interleave in id order.
	companions := [][]byte{fixedSyntheticXML(f, 3), fixedSyntheticXML(f, 8), energy, energy}
	ids := []string{"", "", "", "energy-a", "energy-b"}

	f.Fuzz(func(t *testing.T, doc []byte, kb uint8, order uint64) {
		docs := append([][]byte{doc}, companions...)
		tags := func(i int) []string {
			if i == 0 {
				return []string{"fuzz"}
			}
			return []string{"fixed"}
		}
		single := New()
		for i, d := range docs {
			if _, err := single.Ingest(d, ids[i], tags(i)); err != nil {
				if i == 0 {
					t.Skip() // unparseable either way; nothing to compare
				}
				t.Fatalf("companion ingest: %v", err)
			}
		}
		if single.Len() != len(docs) {
			t.Skip() // the fuzz document duplicates a companion
		}

		k := 1 + int(kb)%5
		rng := rand.New(rand.NewSource(int64(order)))
		parts := make([]*Store, k)
		for i := range parts {
			parts[i] = New()
		}
		for i, d := range docs {
			if _, err := parts[rng.Intn(k)].Ingest(d, ids[i], tags(i)); err != nil {
				t.Fatalf("part ingest diverged from reference: %v", err)
			}
		}
		sels := []string{"", "tag:fuzz", "tag:fixed"}
		shipped := make([][]*Partial, len(sels))
		for _, pi := range rng.Perm(k) {
			var ps []*Partial
			for _, sel := range sels {
				ps = append(ps, BuildPartial(parts[pi].Select(sel)))
			}
			enc, err := EncodePartials(ps)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			dec, err := DecodePartials(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			// Canonical: re-encoding the decoded partials gives the same bytes.
			if re, err := EncodePartials(dec); err != nil || !bytes.Equal(enc, re) {
				t.Fatalf("partial encoding is not canonical (err=%v)", err)
			}
			for s := range sels {
				shipped[s] = append(shipped[s], dec[s])
			}
		}
		merged := make([]*Partial, len(sels))
		for s := range sels {
			merged[s] = MergePartials(shipped[s]...)
		}

		for _, topN := range []int{1, 3, 0} {
			want := reportJSON(t, single.Aggregate(AggOptions{TopN: topN}))
			if got := reportJSON(t, merged[0].Report(AggOptions{TopN: topN})); got != want {
				t.Errorf("merged /agg (top=%d, k=%d) differs from single-store aggregation\ngot:  %s\nwant: %s", topN, k, got, want)
			}
		}
		opts := RegressOptions{Base: "tag:fuzz", Head: "tag:fixed"}
		want := reportJSON(t, single.Regress(opts))
		if got := reportJSON(t, RegressPartials(merged[1], merged[2], opts)); got != want {
			t.Errorf("merged /regress (k=%d) differs from single-store comparison\ngot:  %s\nwant: %s", k, got, want)
		}
	})
}
