package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json at the repository
// root carries the same names, units and bounds; smoke_test.go keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the reference median it may worsen by before a driver rejects the change
}

// endToEnd is what a user of the system sees, reported by the untraced run
// of every workload. failed_share is printed beside them but is not a
// bounded metric: it is 0 on every workload, and a bound on 0 says nothing.
//
// The bounds are a driver's rejection gate, so they are what the 2-vCPU
// reference box can never cross by itself, not what one would wish for. Over
// three sets of ten runs its timings spread (quartile to quartile) by up to
// 7% of the median, p95 by up to 11%, and the median of a whole set moved by
// 12% when a neighbour was busy for minutes; a bound a change is rejected by
// has to sit clear of that. The counts repeat exactly, and peak RSS within 1%
// except where the daemon's garbage rides the collector's sawtooth (6%).
// -compare judges a claim at the finer resolutions of compare.go and says
// "unresolved" where the runs at hand are too noisy for them.
var endToEnd = []metricDef{
	{"tokens_per_s", "tok/s", "higher", 0.25},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"step_ms_p95", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"wire_bytes_per_rank_step", "B", "lower", 0.001},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer is the breakdown under them, reported by the traced run. A layer
// is an internal/ package; the prefix of each name is the layer.
var perLayer = []metricDef{
	{"engine.forward_ms_p50", "ms", "lower", 0},
	{"engine.backward_ms_p50", "ms", "lower", 0},
	{"engine.update_ms_p50", "ms", "lower", 0},
	{"engine.loop_self_us_p50", "us", "lower", 0},
	{"engine.rank_spread_pct", "%", "lower", 0},
	{"engine.micro_per_step", "count", "lower", 0},
	{"engine.allocs_per_step", "count", "lower", 0},
	{"engine.loss_final", "loss", "lower", 0},

	{"data.next_batch_us_p50", "us", "lower", 0},
	{"data.share_pct", "%", "lower", 0},
	{"data.open_s", "s", "lower", 0},
	{"data.epochs", "count", "higher", 0},
	{"data.probe_tokens_per_s", "tok/s", "higher", 0},

	{"comm.messages_per_rank_step", "count", "lower", 0},
	{"comm.grad_elems_per_step", "count", "lower", 0},
	{"comm.prefetch_elems_per_step", "count", "lower", 0},
	{"comm.priority_elems_per_step", "count", "lower", 0},
	{"comm.checkpoint_elems_per_step", "count", "lower", 0},
	{"comm.default_elems_per_step", "count", "lower", 0},
	{"comm.volume_over_psi", "ratio", "lower", 0},
	{"comm.probe_reduce_scatter_mbps", "MB/s", "higher", 0},
	{"comm.probe_all_gather_mbps", "MB/s", "higher", 0},
	{"comm.probe_all_reduce_1_us", "us", "lower", 0},
	{"comm.probe_serial_ms", "ms", "lower", 0},
	{"comm.serial_share_pct", "%", "lower", 0},

	{"tensor.matmul_gflops", "GFLOP/s", "higher", 0},
	{"tensor.matmul_bt_gflops", "GFLOP/s", "higher", 0},
	{"tensor.matmul_at_add_gflops", "GFLOP/s", "higher", 0},

	{"model.ref_fwdbwd_ms_p50", "ms", "lower", 0},
	{"model.flops_per_rank_step", "count", "lower", 0},
	{"model.gflops_per_rank", "GFLOP/s", "higher", 0},
	{"model.compute_share_pct", "%", "higher", 0},

	{"optimizer.step_us_p50", "us", "lower", 0},
	{"optimizer.melems_per_s", "Melem/s", "higher", 0},

	{"zero.exposed_ms_p50", "ms", "lower", 0},
	{"zero.exposed_share_pct", "%", "lower", 0},
	{"zero.model_state_bytes_per_rank", "B", "lower", 0},
	{"zero.compute_residency_bytes_per_rank", "B", "lower", 0},
	{"zero.grad_accum_elems", "count", "lower", 0},
	{"zero.overflow_steps", "count", "lower", 0},
	{"zero.loss_scale_final", "ratio", "higher", 0},

	{"elastic.tick_us_p50", "us", "lower", 0},
	{"elastic.tick_us_p95", "us", "lower", 0},
	{"elastic.stall_ns_per_snapshot", "ns", "lower", 0},
	{"elastic.snapshots", "count", "higher", 0},
	{"elastic.file_bytes", "B", "lower", 0},

	{"serve.submit_ms_p50", "ms", "lower", 0},
	{"serve.first_record_ms_p50", "ms", "lower", 0},
	{"serve.job_ms_p50", "ms", "lower", 0},
	{"serve.teardown_ms_p50", "ms", "lower", 0},
	{"serve.checkpoint_fetch_ms_p50", "ms", "lower", 0},
	{"serve.checkpoint_bytes", "B", "lower", 0},
	{"serve.status_poll_us_p50", "us", "lower", 0},
	{"serve.record_allocs_p50", "count", "lower", 0},
	{"serve.jobs", "count", "higher", 0},
	{"serve.http_requests", "count", "lower", 0},
	{"serve.http_failed", "count", "lower", 0},
	{"serve.overhead_pct", "%", "lower", 0},

	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.spans", "count", "lower", 0},
}

// value is one reported number with its unit, the shape the result line and
// the result files share.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's numbers against one of the tables above. A
// name outside the table, or set twice, is a bug in the benchmark, so it
// panics; a name never set reads 0, which is what a layer the workload does
// not exercise reports.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	if _, dup := m.vals[name]; dup {
		panic("bench: metric set twice: " + name)
	}
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = v
			return
		}
	}
	panic("bench: metric not in the table: " + name)
}

// values returns every metric of the table, in table order, with its unit.
func (m *metricSet) values() map[string]value {
	out := make(map[string]value, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = value{Value: m.vals[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
