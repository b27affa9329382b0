package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric names a run prints are the names BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []struct{ Name string }, printed []string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d, the benchmark prints %d", what, len(declared), len(printed))
		}
		set := map[string]bool{}
		for _, n := range printed {
			set[n] = true
		}
		for _, d := range declared {
			if !set[d.Name] {
				t.Errorf("%s: %s declared but not printed", what, d.Name)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndNames)
	same("per_layer", spec.PerLayer, perLayerNames)
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	same("workloads", spec.Workloads, names)
}
