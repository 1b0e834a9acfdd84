package main

import (
	"encoding/json"
	"os"
	"testing"
)

var workloadNames = []string{"study_registry", "exhaustive_reduction", "swarm_corpus", "partition"}

// TestSmoke drives every workload through the whole harness — set-up,
// timed round, checks, traced round, probes — at a tiny size, so `go test`
// exercises the benchmark's code without running the benchmark.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rc := runConfig{workload: name, seed: 3, seconds: 1, trace: trace, sz: smokeSizes, workdir: t.TempDir()}
			out, err := run(rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if out.OpsAttempted == 0 || out.OpsFailed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, trace, out.OpsFailed, out.OpsAttempted, out.Failures)
			}
			want := map[string]string{}
			if trace {
				for _, d := range perLayer {
					want[d.Name] = d.Unit
				}
				if len(out.Spans) == 0 {
					t.Errorf("%s: traced run recorded no span", name)
				}
			} else {
				for _, d := range endToEnd {
					want[d.Name] = d.Unit
				}
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, want %d", name, trace, len(out.Metrics), len(want))
			}
			for n, unit := range want {
				m, ok := out.Metrics[n]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, trace, n, m, ok, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in the code: same
// workloads, same metrics, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.Higher) || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v, the code has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better(d.Higher) {
			t.Errorf("per-layer metric %d is %+v, the code has %+v", i, m, d)
		}
	}
}
