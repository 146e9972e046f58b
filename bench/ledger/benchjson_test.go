package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// BENCHMARK.json at the repository root repeats the tables in config.go
// (the acceptance driver reads the file, -compare and the result line read
// the tables). They must say the same thing.
func TestBenchmarkJSONMatchesConfig(t *testing.T) {
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	readJSON(t, "../../BENCHMARK.json", &bj)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, config has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, config has %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	table := func(defs []metricDef) []metric {
		out := make([]metric, len(defs))
		for i, d := range defs {
			out[i] = metric{d.name, d.unit, d.better, d.bound}
		}
		return out
	}
	if want := table(endToEnd); !reflect.DeepEqual(bj.EndToEnd, want) {
		t.Errorf("end_to_end:\n %+v\nconfig:\n %+v", bj.EndToEnd, want)
	}
	if want := table(perLayer); !reflect.DeepEqual(bj.PerLayer, want) {
		t.Errorf("per_layer:\n %+v\nconfig:\n %+v", bj.PerLayer, want)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] || len(d.name) > 64 || len(d.unit) > 16 || d.bound > 0.25 {
			t.Errorf("metric %+v breaks the contract", d)
		}
		seen[d.name] = true
	}
}
