package main

import "encoding/json"

// The metric catalogue: every name the benchmark prints, with its unit, the
// layer it belongs to, where the number comes from and what it should move.
// BENCHMARK.json lists the same names (metrics_test.go keeps them equal) and
// README.md is the prose glossary.

// Source says how a per-layer number is obtained.
//
//	L  layer ladder: the harness calls the layer's public function on the
//	   inputs of the workload's first requests, a span around each call
//	X  ?debug=explain totals of a one-client replay of those requests
//	S  /v1/stats delta over the measured window
//	H  measured by the load generator or read from /proc
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string
	Source string
	Moves  string // the end-to-end metric and workload it should move
}

// endToEnd is measured with tracing off, on every workload. The bounds are
// three times the worst spread (interquartile range over median, ten seeds)
// any workload showed on this shared two-core box, capped at the contract's
// 0.25: quiet hours give 2-3 % on the closed loops, noisy ones 6-10 %, and
// dash_hot, a server 10 % busy whose clock follows the host's mood, up to
// 14 % on CPU per op. One bound covers all five workloads, so the noisiest
// sets it. p95_ms is not here for that reason: it spread 11-26 % on dash_hot
// and 9-18 % on explore_shard3 (250 samples a window), beyond any bound the
// contract allows, so it is reported unbounded with the per-layer metrics.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "harness", Source: "H",
		Moves: "median of the set-up repetitions: one D12-shaped step generated and indexed, processes started, /readyz green, warm-up done"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Layer: "e2e", Source: "H",
		Moves: "correct 2xx answers per second of the measured window"},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "e2e", Source: "H",
		Moves: "median request latency, all kinds; open loop: from the due time"},
	{Name: "cpu_s_per_kop", Unit: "s", Better: "lower", Bound: 0.25, Layer: "e2e", Source: "H",
		Moves: "utime+stime of every server process over the window per 1000 ok ops"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25, Layer: "e2e", Source: "H",
		Moves: "sum of VmHWM of the server processes at the end of the window"},
	{Name: "disk_bytes_per_data_byte", Unit: "ratio", Better: "lower", Bound: 0.01, Layer: "e2e", Source: "H",
		Moves: ".col + .idx + catalog bytes per rows x columns x 8 of the directory served"},
}

// perLayer is reported by the traced pass (--trace 1). A metric a workload
// does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Layer: "e2e", Source: "H", Moves: "must stay 0: transport errors, non-2xx, X-Partial/X-Degraded and wrong answers per attempt"},
	{Name: "samples", Unit: "count", Better: "higher", Layer: "e2e", Source: "H", Moves: "latency samples behind p50_ms/p95_ms"},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Layer: "e2e", Source: "H", Moves: "95th percentile request latency; steady on explore_local, session_track and ingest_live (2-5 %), not on the other two"},
	{Name: "p_hi_pct", Unit: "%", Better: "higher", Layer: "e2e", Source: "H", Moves: "highest percentile with at least 10 samples beyond it"},
	{Name: "p_hi_ms", Unit: "ms", Better: "lower", Layer: "e2e", Source: "H", Moves: "latency at p_hi_pct, informational"},

	{Name: "query.parse_canon_us", Unit: "us", Better: "lower", Layer: "query", Source: "L", Moves: "p50_ms on dash_hot"},

	{Name: "serve.hit_us", Unit: "us", Better: "lower", Layer: "serve", Source: "L", Moves: "p50_ms on dash_hot"},
	{Name: "serve.miss_overhead_us", Unit: "us", Better: "lower", Layer: "serve", Source: "H", Moves: "p50_ms on explore_local"},
	{Name: "serve.json_bytes_per_op", Unit: "B", Better: "lower", Layer: "serve", Source: "H", Moves: "p50_ms on dash_hot"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "serve", Source: "S", Moves: "validity gate: <=0.02 on explore_*, >=0.95 on dash_hot"},
	{Name: "serve.admission_wait_us", Unit: "us", Better: "lower", Layer: "serve", Source: "X", Moves: "p95_ms on every workload"},
	{Name: "serve.hist2d_cond.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p50_ms on explore_*"},
	{Name: "serve.hist2d_uncond.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p50_ms on explore_*"},
	{Name: "serve.hist1d_cond.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p50_ms on explore_*"},
	{Name: "serve.count.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p50_ms on explore_*"},
	{Name: "serve.hist2d_scan.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p50_ms on explore_*"},
	{Name: "serve.hit.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p50_ms on dash_hot"},
	{Name: "serve.select.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p50_ms on session_track"},
	{Name: "serve.refine.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p50_ms on session_track (the issue's refine_p50_ms)"},
	{Name: "serve.track.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p95_ms on session_track (the issue's track_p50_ms)"},
	{Name: "serve.views.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p95_ms on session_track"},
	{Name: "serve.sweep2d.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p95_ms on session_track"},
	{Name: "serve.ingest.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "ops_per_s on ingest_live (the issue's ingest_ack_p50_ms)"},
	{Name: "serve.latest.p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Source: "H", Moves: "p50_ms on ingest_live"},

	{Name: "plan.execute_us", Unit: "us", Better: "lower", Layer: "plan", Source: "L", Moves: "p50_ms on explore_*"},
	{Name: "plan.self_us", Unit: "us", Better: "lower", Layer: "plan", Source: "L", Moves: "p50_ms on explore_shard3; about 0 share on explore_local"},
	{Name: "plan.fragments_per_op", Unit: "count", Better: "lower", Layer: "plan", Source: "X", Moves: "p50_ms on explore_shard3"},
	{Name: "plan.two_phase_ratio", Unit: "ratio", Better: "lower", Layer: "plan", Source: "X", Moves: "p50_ms on explore_shard3"},

	{Name: "shard.eval_us", Unit: "us", Better: "lower", Layer: "shard", Source: "L", Moves: "p50_ms on explore_*"},
	{Name: "shard.rpc_overhead_us", Unit: "us", Better: "lower", Layer: "shard", Source: "L", Moves: "p50_ms on explore_shard3"},
	{Name: "shard.reply_bytes_per_frag", Unit: "B", Better: "lower", Layer: "shard", Source: "L", Moves: "p50_ms on explore_shard3"},
	{Name: "shard.work_amplification", Unit: "ratio", Better: "lower", Layer: "shard", Source: "X", Moves: "cpu_s_per_kop and p50_ms on explore_shard3; about 3 today, goal 1"},
	{Name: "shard.straggler_ratio", Unit: "ratio", Better: "lower", Layer: "shard", Source: "X", Moves: "p95_ms on explore_shard3"},
	{Name: "shard.frag_cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "shard", Source: "S", Moves: "about 0 on explore_shard3 by construction"},

	{Name: "cluster.rtt_us", Unit: "us", Better: "lower", Layer: "cluster", Source: "L", Moves: "floor under p50_ms on explore_shard3"},

	{Name: "fastquery.open_step_ms", Unit: "ms", Better: "lower", Layer: "fastquery", Source: "L", Moves: "setup_s"},
	{Name: "fastquery.hist2d_us", Unit: "us", Better: "lower", Layer: "fastquery", Source: "L", Moves: "serve.hist2d_cond.p50_ms on explore_local"},
	{Name: "fastquery.count_us", Unit: "us", Better: "lower", Layer: "fastquery", Source: "L", Moves: "serve.count.p50_ms on explore_local"},
	{Name: "fastquery.unattributed_frac", Unit: "ratio", Better: "lower", Layer: "fastquery", Source: "L", Moves: "1 - sum of rung self times / fastquery time; must stay <= 0.2"},

	{Name: "fastbit.index_load_us", Unit: "us", Better: "lower", Layer: "fastbit", Source: "L", Moves: "setup_s (warm-up pays the lazy loads)"},
	{Name: "fastbit.index_bytes_per_op", Unit: "B", Better: "lower", Layer: "fastbit", Source: "X", Moves: "p95_ms on explore_local"},
	{Name: "fastbit.index_loads_per_op", Unit: "count", Better: "lower", Layer: "fastbit", Source: "X", Moves: "p95_ms on explore_local"},
	{Name: "fastbit.eval_self_us", Unit: "us", Better: "lower", Layer: "fastbit", Source: "L", Moves: "serve.count.p50_ms and serve.hist2d_cond.p50_ms on explore_local"},
	{Name: "fastbit.candidate_checks_per_op", Unit: "count", Better: "lower", Layer: "fastbit", Source: "X", Moves: "serve.count.p50_ms on explore_local"},
	{Name: "fastbit.boundary_bins_per_op", Unit: "count", Better: "lower", Layer: "fastbit", Source: "L", Moves: "serve.count.p50_ms on explore_local"},
	{Name: "fastbit.id_lookup_us", Unit: "us", Better: "lower", Layer: "fastbit", Source: "L", Moves: "serve.track.p50_ms on session_track"},
	{Name: "fastbit.build_ms_per_mrow", Unit: "ms", Better: "lower", Layer: "fastbit", Source: "L", Moves: "setup_s; ingest.index_lag_p50_ms on ingest_live"},

	{Name: "bitmap.ops_per_op", Unit: "count", Better: "lower", Layer: "bitmap", Source: "X", Moves: "p50_ms on explore_local"},
	{Name: "bitmap.orall_ns_per_word", Unit: "ns", Better: "lower", Layer: "bitmap", Source: "L", Moves: "serve.hist2d_cond.p50_ms on explore_local"},
	{Name: "bitmap.and_ns_per_word", Unit: "ns", Better: "lower", Layer: "bitmap", Source: "L", Moves: "serve.count.p50_ms on explore_local"},
	{Name: "bitmap.positions_ns_per_hit", Unit: "ns", Better: "lower", Layer: "bitmap", Source: "L", Moves: "serve.hist2d_cond.p50_ms on explore_local"},
	{Name: "bitmap.count_ns_per_word", Unit: "ns", Better: "lower", Layer: "bitmap", Source: "L", Moves: "serve.refine.p50_ms on session_track"},
	{Name: "bitmap.index_bytes_per_row", Unit: "B", Better: "lower", Layer: "bitmap", Source: "H", Moves: "disk_bytes_per_data_byte"},

	{Name: "colstore.read_col_us", Unit: "us", Better: "lower", Layer: "colstore", Source: "L", Moves: "serve.hist2d_uncond.p50_ms and serve.hist2d_scan.p50_ms on explore_local"},
	{Name: "colstore.read_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "colstore", Source: "L", Moves: "serve.hist2d_uncond.p50_ms on explore_local"},
	{Name: "colstore.gather_us", Unit: "us", Better: "lower", Layer: "colstore", Source: "L", Moves: "serve.count.p50_ms on explore_local; serve.refine.p50_ms on session_track"},
	{Name: "colstore.gather_bytes_per_value", Unit: "B", Better: "lower", Layer: "colstore", Source: "X", Moves: "serve.count.p50_ms on explore_local"},
	{Name: "colstore.data_bytes_per_op", Unit: "B", Better: "lower", Layer: "colstore", Source: "X", Moves: "p50_ms on explore_local"},
	{Name: "colstore.write_ms_per_mrow", Unit: "ms", Better: "lower", Layer: "colstore", Source: "L", Moves: "serve.ingest.p50_ms on ingest_live; setup_s"},

	{Name: "histogram.compute2d_ns_per_value", Unit: "ns", Better: "lower", Layer: "histogram", Source: "L", Moves: "serve.hist2d_uncond.p50_ms on explore_local"},
	{Name: "histogram.compute1d_ns_per_value", Unit: "ns", Better: "lower", Layer: "histogram", Source: "L", Moves: "serve.hist1d_cond.p50_ms on explore_local"},
	{Name: "histogram.merge2d_us", Unit: "us", Better: "lower", Layer: "histogram", Source: "L", Moves: "p50_ms on explore_shard3"},

	{Name: "scan.cond_hist2d_ns_per_row", Unit: "ns", Better: "lower", Layer: "scan", Source: "L", Moves: "serve.hist2d_scan.p50_ms on explore_local"},
	{Name: "scan.select_ns_per_row", Unit: "ns", Better: "lower", Layer: "scan", Source: "L", Moves: "serve.hist2d_scan.p50_ms on explore_local; serve.latest.p50_ms on ingest_live"},
	{Name: "scan.rows_scanned_per_op", Unit: "count", Better: "lower", Layer: "scan", Source: "X", Moves: "serve.hist2d_scan.p50_ms on explore_local"},

	{Name: "session.combine_us", Unit: "us", Better: "lower", Layer: "session", Source: "L", Moves: "serve.refine.p50_ms on session_track"},
	{Name: "session.refine_reuse_ratio", Unit: "ratio", Better: "higher", Layer: "session", Source: "S", Moves: "validity gate: >=0.95 on session_track"},
	{Name: "session.bytes_per_selection", Unit: "B", Better: "lower", Layer: "session", Source: "S", Moves: "rss_peak_mb on session_track"},

	{Name: "ingest.append_ms", Unit: "ms", Better: "lower", Layer: "ingest", Source: "L", Moves: "serve.ingest.p50_ms on ingest_live"},
	{Name: "ingest.commit_ms", Unit: "ms", Better: "lower", Layer: "ingest", Source: "L", Moves: "serve.ingest.p50_ms on ingest_live"},
	{Name: "ingest.build_ms", Unit: "ms", Better: "lower", Layer: "ingest", Source: "L", Moves: "ingest.index_lag_p50_ms on ingest_live"},
	{Name: "ingest.index_lag_p50_ms", Unit: "ms", Better: "lower", Layer: "ingest", Source: "H", Moves: "ingest_live: commit ack until /v1/steps?detail=1 says indexed (the issue's index_lag_p50_ms)"},
	{Name: "ingest.reader_slowdown", Unit: "ratio", Better: "lower", Layer: "ingest", Source: "H", Moves: "p50_ms on ingest_live: reader p50 beside the writer over reader p50 before it starts"},

	{Name: "obs.explain_overhead_frac", Unit: "ratio", Better: "lower", Layer: "obs", Source: "H", Moves: "none: the cost of asking for the explain profile"},

	{Name: "gen.sched_lag_p95_ms", Unit: "ms", Better: "lower", Layer: "harness", Source: "H", Moves: "validity gate: <1 on dash_hot"},
	{Name: "gen.selectivity_decades", Unit: "count", Better: "higher", Layer: "harness", Source: "H", Moves: "validity gate: hist2d_cond selectivities span >=3 decades on explore_*"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "lower", Layer: "harness", Source: "H", Moves: "server CPU seconds per wall second; validity of the run"},
}

// runSeconds is the measured window the driver asks for. With three set-up
// repetitions and the checks an untraced run takes about twice as long, and
// the driver's 4 + 22 x 5 runs must end within 3420 s.
const runSeconds = 10

// manifest renders BENCHMARK.json from the catalogue and the workload list.
func manifest() ([]byte, error) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, metricJSON{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metricJSON{d.Name, d.Unit, d.Better, nil})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	return append(buf, '\n'), err
}
