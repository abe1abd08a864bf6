package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string, workloads []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

func sameSet(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	names := sortedKeys(got)
	w := append([]string(nil), want...)
	sort.Strings(w)
	if len(names) != len(w) {
		t.Fatalf("%s: printed %d metrics %v, BENCHMARK.json lists %d %v", what, len(names), names, len(w), w)
	}
	for i := range names {
		if names[i] != w[i] {
			t.Fatalf("%s: printed metric %q, BENCHMARK.json lists %q", what, names[i], w[i])
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// requires its oracles to pass and its metrics to match BENCHMARK.json.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer, wls := benchmarkNames(t)
	if len(wls) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists workloads %v; the benchmark runs %d", wls, len(workloads))
	}
	for _, name := range wls {
		for _, trace := range []bool{false, true} {
			res, err := run(name, config{seed: 7, seconds: 0.05, trace: trace, smoke: true}, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if !trace {
				sameSet(t, name, res.Metrics, endToEnd)
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
					}
				}
				continue
			}
			sameSet(t, name+" traced", res.Metrics, perLayer)
			if res.Metrics["trace.ops_per_s"].Value <= 0 {
				t.Errorf("%s: traced run reports no throughput", name)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	s := samples{5, 1, 4, 2, 3}
	if got := s.quantileUS(0.5); got != 0.003 {
		t.Errorf("median of 1..5 ns = %v us, want 0.003", got)
	}
	if got := s.quantileUS(0.99); got != 0.005 {
		t.Errorf("p99 of 1..5 ns = %v us, want 0.005", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
