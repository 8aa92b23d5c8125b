package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload, untraced and traced, at
// smoke size: tiny stores, a handful of posts, one-day replays. It
// asserts counts only — every operation attempted succeeded, a workload
// reported exactly its own metrics, and the driver's line carries every
// metric BENCHMARK.json lists — and no timing, so it cannot flake on a
// busy machine.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{workload: w.Name, seed: defaultSeed, seconds: 0, traced: traced, outDir: t.TempDir(), short: true}
				res, err := runWorkload(cfg, time.Now())
				if err != nil {
					t.Fatal(err)
				}
				if res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("attempted %d, failed %d: %+v", res.Attempted, res.Failed, res.Failures)
				}
				if traced {
					if res.TraceFile == "" {
						t.Error("traced run wrote no trace file")
					} else if raw, err := os.ReadFile(res.TraceFile); err != nil {
						t.Error(err)
					} else {
						var events []map[string]any
						if err := json.Unmarshal(raw, &events); err != nil {
							t.Errorf("trace file is not trace_event JSON: %v", err)
						}
					}
					if len(res.Metrics) != len(perLayer) {
						t.Errorf("%d metrics reported, the ledger has %d", len(res.Metrics), len(perLayer))
					}
					for _, spec := range perLayer {
						if _, ok := res.Metrics[spec.Name]; !ok {
							t.Errorf("%s not reported", spec.Name)
						}
					}
					return
				}
				for _, spec := range endToEnd {
					v, ok := res.Metrics[spec.Name]
					switch {
					case ok != spec.on(w.Name):
						t.Errorf("%s reported = %v, a metric of this workload = %v", spec.Name, ok, spec.on(w.Name))
					case ok && spec.Name != failedShare && v.Value <= 0:
						t.Errorf("%s = %v, want a positive reading", spec.Name, v.Value)
					}
				}
				line := driverMetrics(res)
				if len(line) != len(driverEndToEnd()) {
					t.Errorf("the driver's line carries %d metrics, BENCHMARK.json lists %d", len(line), len(driverEndToEnd()))
				}
				for _, spec := range driverEndToEnd() {
					if v := line[spec.Name]; v.Value <= 0 || v.Unit != spec.Unit {
						t.Errorf("driver's %s = %+v; a listed metric is never 0", spec.Name, v)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps the driver's copy of the
// catalogue in step with spec.go.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(file.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %+v", i, file.Workloads[i], w)
		}
	}
	listed := driverEndToEnd()
	if len(file.EndToEnd) != len(listed) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d marked Driver in the catalogue", len(file.EndToEnd), len(listed))
	}
	for i, m := range listed {
		got := file.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: %+v, want %+v", i, got, m)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(file.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := file.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: %+v, want %+v", i, got, m)
		}
	}
}
