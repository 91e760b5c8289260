package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// manifest is BENCHMARK.json, the contract the driver reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in this
// package saying the same thing.
func TestManifestMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) || m.RunSeconds != defaultSeconds {
		t.Errorf("paths %v run_seconds %d, want [bench] %d", m.Paths, m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, workloads.go has %q: %q", i, m.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (manifestMetric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

// TestSmoke runs every workload for 5 timed steps, untraced and traced,
// twice with one seed: every metric of the tables comes out once with its
// unit, every check passes, and the run is a function of the seed — the
// same wire bytes per step and the same final loss to the bit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			var wire, loss [2]float64
			for i := range wire {
				for _, traced := range []bool{false, true} {
					res, err := runWorkload(w, runOpts{seed: 7, seconds: 1, steps: 5, traced: traced, outDir: t.TempDir(), probeReps: 2})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Correct || res.FailedShare != 0 {
						t.Errorf("traced=%v: failed %d of %d: %+v", traced, res.Failed, res.Attempted, res.Checks)
					}
					defs := endToEnd
					if traced {
						defs = perLayer
					}
					if len(res.Metrics) != len(defs) {
						t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
					}
					for _, d := range defs {
						v, ok := res.Metrics[d.Name]
						if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
							t.Errorf("traced=%v: metric %s = %+v (present %v), want a finite value in %s", traced, d.Name, v, ok, d.Unit)
						}
						if !traced && v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, v.Value)
						}
					}
					if traced {
						loss[i] = res.Metrics["engine.loss_final"].Value
					} else {
						wire[i] = res.Metrics["wire_bytes_per_rank_step"].Value
					}
				}
			}
			if wire[0] != wire[1] {
				t.Errorf("wire_bytes_per_rank_step %v then %v with one seed", wire[0], wire[1])
			}
			if math.Float64bits(loss[0]) != math.Float64bits(loss[1]) {
				t.Errorf("engine.loss_final %v then %v with one seed", loss[0], loss[1])
			}
		})
	}
}
