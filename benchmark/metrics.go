package main

import (
	"repro/internal/models"
)

// metricDef is one row of the benchmark's metric tables: what
// BENCHMARK.json carries (name, unit, direction, bound) plus, for a
// per-layer metric, the end-to-end metric and workload it should move —
// the interaction table of the README in machine-readable form
// (`-describe` prints it as JSON).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Layer and Moves are set on per-layer metrics only.
	Layer string `json:"layer,omitempty"`
	Moves string `json:"moves,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the serving stack sees, reported
// per workload with tracing off. Bounds are shares of the parent's
// median.
//
// The timing bounds are the widest the benchmark contract allows, not
// the 10–15 % the issue asked for. On the 2-vCPU reference box the same
// binary on the same inputs (allocs_per_req repeats to four digits) moves
// its throughput by 10–30 % between ten-run sets minutes apart — the
// host's speed drifts in multi-minute episodes — and the driver's
// run-time cap leaves no room to lengthen runs past the drift. A bound
// the box itself cannot hold would reject every change (README,
// "Repeatability"), so the exact counts (allocs_per_req here, exec.* per
// layer) carry the fine-grained gate.
//
// The issue's error_rate (any increase is a regression) is carried as
// success_rate, because a metric whose healthy value is 0 has no
// relative bound: one failed request in the smallest workload (108
// requests) lowers it by 0.9 %, past the 0.1 % bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "throughput_rps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "latency_geomean_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "allocs_per_req", Unit: "count", Better: lower, Bound: 0.02},
	{Name: "alloc_kb_per_req", Unit: "KiB", Better: lower, Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.25},
	{Name: "success_rate", Unit: "ratio", Better: higher, Bound: 0.001},
}

// Moves strings, shared by several rows.
const (
	movesFleetOnly = "latency_geomean_ms, throughput_rps on http-fleet only; zero on the in-process workloads"
	movesSession   = "latency_geomean_ms on http-fleet; the counts must stay 0"
	movesModel     = "throughput_rps ≈ 2x on all four workloads once the second execution goes (ROADMAP item 2)"
	movesCaches    = "justifies or condemns a cache: a rate of 0 means the cache serves nothing on this traffic"
	movesExec      = "alloc_kb_per_req, latency_geomean_ms, most on cnn-gated (ROADMAP item 3: the ratio must drop below 1)"
	movesExecCount = "exact count; must not change unless a PR says so"
	movesAttnKern  = "throughput_rps, allocs_per_req on seq-attn; no move on cnn-gated (ROADMAP item 4)"
	movesConvKern  = "throughput_rps, latency_geomean_ms on cnn-gated; no move on seq-attn (ROADMAP item 4)"
	movesKernOther = "throughput_rps on the workload where its share is largest"
	movesCompile   = "setup_s, most on http-fleet (ten models)"
	movesQuant     = "throughput_rps, peak_rss_mb on quant-int8"
	movesRuntime   = "follows allocs_per_req; explains latency_p90_ms on seq-attn"
	movesPerModel  = "the per-program row behind latency_geomean_ms"
	movesHarness   = "the benchmark's own cost and validity"
)

// perLayerDefs builds the per-layer table; the model.* rows are
// generated from the model registry so an eleventh model gets its rows.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{Name: "server.decode_ms", Unit: "ms", Better: lower, Layer: "server", Moves: movesFleetOnly},
		{Name: "server.encode_ms", Unit: "ms", Better: lower, Layer: "server", Moves: movesFleetOnly},
		{Name: "server.overhead_ms", Unit: "ms", Better: lower, Layer: "server", Moves: movesFleetOnly},
		{Name: "server.body_kb", Unit: "KiB", Better: lower, Layer: "server", Moves: movesFleetOnly},
		{Name: "server.bucket_members_avg", Unit: "count", Better: higher, Layer: "server", Moves: movesFleetOnly},
		{Name: "server.http_4xx", Unit: "count", Better: lower, Layer: "server", Moves: "success_rate on http-fleet; must stay 0"},
		{Name: "server.http_5xx", Unit: "count", Better: lower, Layer: "server", Moves: "success_rate on http-fleet; must stay 0"},

		{Name: "session.self_ms", Unit: "ms", Better: lower, Layer: "session", Moves: movesSession},
		{Name: "session.shed", Unit: "count", Better: lower, Layer: "session", Moves: movesSession},
		{Name: "session.retries", Unit: "count", Better: lower, Layer: "session", Moves: movesSession},
		{Name: "session.coalesced", Unit: "count", Better: higher, Layer: "session", Moves: movesSession},

		{Name: "frameworks.infer_ms", Unit: "ms", Better: lower, Layer: "frameworks", Moves: movesModel},
		{Name: "frameworks.guarded_ms", Unit: "ms", Better: lower, Layer: "frameworks", Moves: movesModel},
		{Name: "frameworks.model_ms", Unit: "ms", Better: lower, Layer: "frameworks", Moves: movesModel},
		{Name: "frameworks.second_exec_share", Unit: "ratio", Better: lower, Layer: "frameworks", Moves: movesModel},
		{Name: "frameworks.bind_ms", Unit: "ms", Better: lower, Layer: "frameworks", Moves: "latency_geomean_ms on http-fleet (short requests)"},
		{Name: "frameworks.region_hit_rate", Unit: "ratio", Better: higher, Layer: "frameworks", Moves: movesCaches},
		{Name: "frameworks.plan_cache_hit_rate", Unit: "ratio", Better: higher, Layer: "frameworks", Moves: movesCaches},
		{Name: "frameworks.trace_memo_hit_rate", Unit: "ratio", Better: higher, Layer: "frameworks", Moves: movesCaches},
		{Name: "frameworks.degraded_rate", Unit: "ratio", Better: lower, Layer: "frameworks", Moves: "must equal 4/44 on http-fleet and 0 elsewhere"},

		{Name: "exec.planned_ms", Unit: "ms", Better: lower, Layer: "exec", Moves: movesExec},
		{Name: "exec.dynamic_ms", Unit: "ms", Better: lower, Layer: "exec", Moves: movesExec},
		{Name: "exec.planned_over_dynamic", Unit: "ratio", Better: lower, Layer: "exec", Moves: movesExec},
		{Name: "exec.interp_ms", Unit: "ms", Better: lower, Layer: "exec", Moves: movesExec},
		{Name: "exec.ops_per_req", Unit: "count", Better: lower, Layer: "exec", Moves: movesExecCount},
		{Name: "exec.arena_high_water_kb", Unit: "KiB", Better: lower, Layer: "exec", Moves: "peak_rss_mb on cnn-gated; " + movesExecCount},
		{Name: "exec.intermediate_kb_per_req", Unit: "KiB", Better: lower, Layer: "exec", Moves: "alloc_kb_per_req; " + movesExecCount},
		{Name: "exec.peak_live_kb", Unit: "KiB", Better: lower, Layer: "exec", Moves: "peak_rss_mb; " + movesExecCount},

		{Name: "kernels.total_ms", Unit: "ms", Better: lower, Layer: "kernels", Moves: "throughput_rps on all four workloads"},
		{Name: "kernels.matmul_ms", Unit: "ms", Better: lower, Layer: "kernels", Moves: movesAttnKern},
		{Name: "kernels.conv_ms", Unit: "ms", Better: lower, Layer: "kernels", Moves: movesConvKern},
		{Name: "kernels.elementwise_ms", Unit: "ms", Better: lower, Layer: "kernels", Moves: movesAttnKern},
		{Name: "kernels.norm_ms", Unit: "ms", Better: lower, Layer: "kernels", Moves: movesAttnKern},
		{Name: "kernels.movement_ms", Unit: "ms", Better: lower, Layer: "kernels", Moves: movesKernOther},
		{Name: "kernels.other_ms", Unit: "ms", Better: lower, Layer: "kernels", Moves: movesKernOther},
		{Name: "kernels.matmul_gflops", Unit: "GFLOP/s", Better: higher, Layer: "kernels", Moves: movesAttnKern},
		{Name: "kernels.conv_gflops", Unit: "GFLOP/s", Better: higher, Layer: "kernels", Moves: movesConvKern},

		{Name: "compile.total_ms", Unit: "ms", Better: lower, Layer: "compile", Moves: movesCompile},
		{Name: "compile.rdp_ms", Unit: "ms", Better: lower, Layer: "compile", Moves: movesCompile},
		{Name: "compile.fusion_ms", Unit: "ms", Better: lower, Layer: "compile", Moves: movesCompile},
		{Name: "compile.plan_ms", Unit: "ms", Better: lower, Layer: "compile", Moves: movesCompile},
		{Name: "compile.mvc_ms", Unit: "ms", Better: lower, Layer: "compile", Moves: movesCompile},
		{Name: "compile.absint_ms", Unit: "ms", Better: lower, Layer: "compile", Moves: movesCompile},
		{Name: "compile.verify_ms", Unit: "ms", Better: lower, Layer: "compile", Moves: movesCompile},
		{Name: "artifact.save_ms", Unit: "ms", Better: lower, Layer: "compile", Moves: "none today: no workload boots from the store"},
		{Name: "artifact.warm_boot_ms", Unit: "ms", Better: lower, Layer: "compile", Moves: "none today: what setup_s would become with a warm store"},

		{Name: "quant.weight_bytes_ratio", Unit: "ratio", Better: lower, Layer: "quant", Moves: movesQuant},
		{Name: "quant.tensors_packed", Unit: "count", Better: higher, Layer: "quant", Moves: movesQuant},
		{Name: "quant.max_abs_drift", Unit: "abs", Better: lower, Layer: "quant", Moves: "success_rate on quant-int8 (a drift past the budget fails the request)"},
		{Name: "quant.f32_fallbacks", Unit: "count", Better: lower, Layer: "quant", Moves: movesQuant},

		{Name: "runtime.gc_cycles_per_req", Unit: "count", Better: lower, Layer: "runtime", Moves: movesRuntime},
		{Name: "runtime.gc_pause_ms_per_req", Unit: "ms", Better: lower, Layer: "runtime", Moves: movesRuntime},
	}
	for _, b := range models.All() {
		defs = append(defs,
			metricDef{Name: "model." + b.Name + ".latency_ms", Unit: "ms", Better: lower, Layer: "model", Moves: movesPerModel},
			metricDef{Name: "model." + b.Name + ".allocs_per_req", Unit: "count", Better: lower, Layer: "model", Moves: movesPerModel},
		)
	}
	return append(defs,
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: lower, Layer: "harness", Moves: movesHarness},
		metricDef{Name: "gen_s", Unit: "s", Better: lower, Layer: "harness", Moves: movesHarness},
		metricDef{Name: "oracle.checked", Unit: "count", Better: higher, Layer: "harness", Moves: movesHarness},
		metricDef{Name: "oracle.bit_identical", Unit: "count", Better: higher, Layer: "harness", Moves: movesHarness},
		metricDef{Name: "oracle.max_abs_diff", Unit: "abs", Better: lower, Layer: "harness", Moves: movesHarness},
		metricDef{Name: "oracle.golden_checked", Unit: "count", Better: higher, Layer: "harness", Moves: movesHarness},
	)
}

// value is one reported metric reading.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// readings attaches units to raw values, in table order. Every metric of
// the table is reported: a layer a workload does not use reads 0.
func readings(defs []metricDef, raw map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: raw[d.Name], Unit: d.Unit}
	}
	return out
}
