package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the implemented workloads and exactly the
// metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		listed[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %q is implemented but not listed in BENCHMARK.json", name)
		}
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(spec.Workloads))
	}
	check := func(kind string, declared map[string]string, want map[string]string) {
		for n, u := range want {
			if du, ok := declared[n]; !ok {
				t.Errorf("%s metric %s is reported but not declared", kind, n)
			} else if du != u {
				t.Errorf("%s metric %s: declared unit %q, reported %q", kind, n, du, u)
			}
		}
		var extra []string
		for n := range declared {
			if _, ok := want[n]; !ok {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		if len(extra) > 0 {
			t.Errorf("%s metrics declared but not reported: %v", kind, extra)
		}
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	check("end-to-end", e2e, endToEndUnits)
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("per-layer", layers, perLayerUnits)
}
