package main

import (
	"io"
	"strings"
	"testing"
)

// synthetic builds a report of five untraced runs per workload whose
// metrics are base × scale[metric], spread evenly over ±jitter.
func synthetic(scale map[string]float64, jitter float64) report {
	base := map[string]float64{
		"tokens_per_s": 5000, "step_ms_p50": 50, "step_ms_p95": 55,
		"setup_s": 1, "wire_bytes_per_rank_step": 3e6, "peak_rss_mb": 80,
	}
	rep := report{Fingerprint: fingerprint{CPU: "test cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24"}}
	for _, w := range workloads {
		for _, off := range []float64{-1, -0.5, 0, 0.5, 1} {
			r := result{Workload: w.Name, Correct: true, Attempted: 100, Metrics: map[string]value{}}
			for _, d := range endToEnd {
				s := 1.0
				if f, ok := scale[d.Name]; ok {
					s = f
				}
				v := base[d.Name] * s
				if d.Name != "wire_bytes_per_rank_step" {
					v *= 1 + jitter*off
				}
				r.Metrics[d.Name] = value{v, d.Unit}
			}
			rep.Results = append(rep.Results, r)
		}
	}
	return rep
}

func verdictOf(t *testing.T, ref, cand report, metric string) string {
	t.Helper()
	d := endToEnd[0]
	for _, m := range endToEnd {
		if m.Name == metric {
			d = m
		}
	}
	w := workloads[0].Name
	_, v := judge(d, untracedValues(ref, w, metric), untracedValues(cand, w, metric))
	return v
}

func TestCompareVerdicts(t *testing.T) {
	ref := synthetic(nil, 0.005)

	slow := synthetic(map[string]float64{"tokens_per_s": 0.8, "step_ms_p50": 1.25}, 0.005)
	if v := verdictOf(t, ref, slow, "tokens_per_s"); v != verdictWorse {
		t.Errorf("20%% fewer tokens/s judged %s, want worse", v)
	}
	if v := verdictOf(t, ref, slow, "step_ms_p50"); v != verdictWorse {
		t.Errorf("25%% longer steps judged %s, want worse", v)
	}
	if v := verdictOf(t, ref, slow, "peak_rss_mb"); v != verdictSame {
		t.Errorf("untouched metric judged %s, want same", v)
	}
	if err := compareReports(io.Discard, ref, slow); err == nil {
		t.Error("a 20% slowdown did not fail the comparison")
	}

	leak := synthetic(map[string]float64{"peak_rss_mb": 1.2}, 0.005)
	if v := verdictOf(t, ref, leak, "peak_rss_mb"); v != verdictWorse {
		t.Errorf("20%% more memory judged %s, want worse", v)
	}

	jitter := synthetic(map[string]float64{"tokens_per_s": 0.98, "step_ms_p50": 1.02}, 0.005)
	if v := verdictOf(t, ref, jitter, "tokens_per_s"); v != verdictSame {
		t.Errorf("2%% jitter judged %s, want same", v)
	}
	if err := compareReports(io.Discard, ref, jitter); err != nil {
		t.Errorf("2%% jitter failed the comparison: %v", err)
	}

	fast := synthetic(map[string]float64{"tokens_per_s": 1.2}, 0.005)
	if v := verdictOf(t, ref, fast, "tokens_per_s"); v != verdictBetter {
		t.Errorf("20%% more tokens/s judged %s, want better", v)
	}

	// Runs that disagree with each other by more than the resolution cannot
	// show a change of that size, whatever their medians say.
	noisy := synthetic(map[string]float64{"tokens_per_s": 0.8}, 0.08)
	if v := verdictOf(t, ref, noisy, "tokens_per_s"); v != verdictUnresolved {
		t.Errorf("spread wider than the resolution judged %s, want unresolved", v)
	}

	more := synthetic(map[string]float64{"wire_bytes_per_rank_step": 1.01}, 0.005)
	if v := verdictOf(t, ref, more, "wire_bytes_per_rank_step"); v != verdictWorse {
		t.Errorf("1%% more wire bytes judged %s, want worse", v)
	}
}

func TestCompareRefusesAcrossMachines(t *testing.T) {
	ref, cand := synthetic(nil, 0), synthetic(nil, 0)
	cand.Fingerprint.CPU = "another cpu"
	err := compareReports(io.Discard, ref, cand)
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("reports from two machines compared: %v", err)
	}
	// Another run budget is another step count: refused as well.
	cand = synthetic(nil, 0)
	for i := range cand.Results {
		cand.Results[i].Seconds = 5
	}
	if err := compareReports(io.Discard, ref, cand); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("reports of different -seconds compared: %v", err)
	}
	// The commit and the seed are what a comparison varies; they must not
	// make it refuse.
	cand = synthetic(nil, 0)
	cand.Fingerprint.GitSHA, cand.Fingerprint.Seed = "abc", 2
	if err := compareReports(io.Discard, ref, cand); err != nil {
		t.Errorf("same machine, other commit and seed: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// is [3.5, 24.0, 160.0].
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles %v %v, want 3.5 160", q1, q3)
	}
}
