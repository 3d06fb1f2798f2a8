package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// span is one completed span read back from a Chrome trace-event
// document written by internal/obs/trace. Times are microseconds from
// the tracer's epoch.
type span struct {
	ID, Parent uint64
	Name       string
	Start, End float64
}

// parseSpans reads the complete ("X") events of a trace document and
// recovers their span and parent IDs from the event args.
func parseSpans(r io.Reader) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				SpanID   uint64 `json:"span_id"`
				ParentID uint64 `json:"parent_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding trace document: %w", err)
	}
	var out []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Args.SpanID == 0 {
			return nil, fmt.Errorf("span %q has no span_id", ev.Name)
		}
		out = append(out, span{
			ID: ev.Args.SpanID, Parent: ev.Args.ParentID, Name: ev.Name,
			Start: ev.TS, End: ev.TS + ev.Dur,
		})
	}
	return out, nil
}

// spanTotals aggregates spans by name.
type spanTotals struct {
	Count int
	// Incl is the summed duration of every span of the name.
	Incl float64
	// Self is the summed self time: each span's duration minus the part
	// of its interval that its children cover. Children that overlap
	// each other (concurrent shards) are counted once, as their union.
	Self float64
}

// selfTimes computes per-name totals in microseconds. A child's interval
// is clipped to its parent's, so a child that outlives its parent (an
// episode span ended on another goroutine) never makes self time
// negative.
func selfTimes(spans []span) map[string]spanTotals {
	children := make(map[uint64][]span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanTotals{}
	for _, s := range spans {
		dur := s.End - s.Start
		t := out[s.Name]
		t.Count++
		t.Incl += dur
		t.Self += dur - coveredBy(children[s.ID], s.Start, s.End)
		out[s.Name] = t
	}
	return out
}

// coveredBy returns the length of the union of the children's intervals
// clipped to [lo, hi].
func coveredBy(children []span, lo, hi float64) float64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// countUnder counts spans named name that have an ancestor named
// ancestor (e.g. the assessments a harvest ran).
func countUnder(spans []span, name, ancestor string) int {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	n := 0
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		for p, ok := byID[s.Parent]; ok; p, ok = byID[p.Parent] {
			if p.Name == ancestor {
				n++
				break
			}
		}
	}
	return n
}
