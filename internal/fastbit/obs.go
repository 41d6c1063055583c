package fastbit

import (
	"repro/internal/obs"
)

// Package-level instruments, registered once in the process-wide registry
// so every Evaluator and LazyStep — across servers and cluster workers —
// reports into the same series.
var (
	metricEvalRows = obs.Default().Counter("fastbit_eval_rows_total",
		"Records inside the row windows of index-assisted query evaluations.")
	metricEvals = obs.Default().Counter("fastbit_evals_total",
		"Index-assisted query evaluations performed.")
	metricCandidateChecks = obs.Default().Counter("fastbit_candidate_checks_total",
		"Raw-data candidate checks performed for boundary bins.")
	metricIndexLoads = obs.Default().Counter("fastbit_index_loads_total",
		"Index sections loaded from disk (cache misses).")
	metricIndexLoadSeconds = obs.Default().Histogram("fastbit_index_load_seconds",
		"Wall time loading one index section from disk.", nil)
	metricEvalSeconds = obs.Default().Histogram("fastbit_eval_seconds",
		"Wall time of one index-assisted query evaluation.", nil)
)

func init() {
	// The candidate-check fraction is the paper's headline index-quality
	// signal: the share of records that had to be verified against raw
	// data because they fell in boundary bins.
	obs.Default().GaugeFunc("fastbit_candidate_check_fraction",
		"Candidate checks divided by records covered by evaluations.",
		func() float64 {
			rows := metricEvalRows.Load()
			if rows == 0 {
				return 0
			}
			return float64(metricCandidateChecks.Load()) / float64(rows)
		})
}
