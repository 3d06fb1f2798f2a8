package main

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/obs/trace"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "session", Start: 0, End: 100},
		// Two overlapping children (concurrent shards) cover [10, 50]
		// once, not twice.
		{ID: 2, Parent: 1, Name: "shard", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "shard", Start: 20, End: 50},
		// A child outliving its parent counts only inside the parent.
		{ID: 4, Parent: 1, Name: "episode", Start: 90, End: 130},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 2, Name: "collect", Start: 12, End: 18},
		// A disjoint second root.
		{ID: 6, Name: "session", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]spanTotals{
		"session": {Count: 2, Incl: 110, Self: 100 - 40 - 10 + 10},
		"shard":   {Count: 2, Incl: 50, Self: 20 - 6 + 30},
		"episode": {Count: 1, Incl: 40, Self: 40},
		"collect": {Count: 1, Incl: 6, Self: 6},
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || math.Abs(g.Incl-w.Incl) > 1e-9 || math.Abs(g.Self-w.Self) > 1e-9 {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
}

func TestCoveredBy(t *testing.T) {
	for _, tc := range []struct {
		iv   [][2]float64
		want float64
	}{
		{nil, 0},
		{[][2]float64{{0, 10}}, 10},
		{[][2]float64{{0, 10}, {5, 8}}, 10},       // nested
		{[][2]float64{{0, 10}, {10, 20}}, 20},     // touching
		{[][2]float64{{30, 40}, {0, 10}}, 20},     // unsorted, disjoint
		{[][2]float64{{-5, 5}, {95, 200}}, 10},    // clipped both sides
		{[][2]float64{{120, 130}, {-20, -10}}, 0}, // entirely outside
	} {
		var cs []span
		for _, v := range tc.iv {
			cs = append(cs, span{Start: v[0], End: v[1]})
		}
		if got := coveredBy(cs, 0, 100); got != tc.want {
			t.Errorf("coveredBy(%v) = %v, want %v", tc.iv, got, tc.want)
		}
	}
}

func TestCountUnder(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "harvest"},
		{ID: 2, Parent: 1, Name: "assess"},
		{ID: 3, Parent: 2, Name: "shard"},
		{ID: 4, Name: "session"},
		{ID: 5, Parent: 4, Name: "oracle_eval"},
		{ID: 6, Parent: 5, Name: "assess"},
		{ID: 7, Parent: 1, Name: "x"},
		{ID: 8, Parent: 7, Name: "assess"},
	}
	if got := countUnder(spans, "assess", "harvest"); got != 2 {
		t.Errorf("assess under harvest = %d, want 2", got)
	}
	if got := countUnder(spans, "assess", "session"); got != 1 {
		t.Errorf("assess under session = %d, want 1", got)
	}
}

// TestParseSpansRoundTrip reads back a document written by the
// program's tracer and recovers its span tree.
func TestParseSpansRoundTrip(t *testing.T) {
	tr := trace.New()
	root, ctx := tr.StartRoot(context.Background(), "bench")
	a, actx := trace.StartSpan(ctx, trace.SpanAssess)
	s, _ := trace.StartSpan(actx, trace.SpanShard)
	s.End()
	a.End()
	root.End()
	var doc bytes.Buffer
	if err := tr.Export(&doc); err != nil {
		t.Fatal(err)
	}
	spans, err := parseSpans(&doc)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	if byName["bench"].Parent != 0 || byName[trace.SpanAssess].Parent != byName["bench"].ID ||
		byName[trace.SpanShard].Parent != byName[trace.SpanAssess].ID {
		t.Errorf("span tree not recovered: %+v", spans)
	}
	for _, sp := range spans {
		if sp.End < sp.Start {
			t.Errorf("span %s ends before it starts", sp.Name)
		}
	}
}
