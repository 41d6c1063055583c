package ingest

import "repro/internal/obs"

// Package-level instruments for the live ingestion pipeline, registered
// in the process-wide registry so /metrics exposes the write path next to
// the scan/fastbit read-path series.
var (
	metricStepsCommitted = obs.Default().Counter("ingest_steps_committed_total",
		"Timesteps durably committed to a live dataset catalog.")
	metricRowsCommitted = obs.Default().Counter("ingest_rows_total",
		"Rows committed through the live ingestion path.")
	metricBytesCommitted = obs.Default().Counter("ingest_bytes_total",
		"Data bytes committed through the live ingestion path.")
	metricIndexRetries = obs.Default().Counter("ingest_index_retries_total",
		"Index build attempts that failed transiently and were retried.")
	metricIndexFailures = obs.Default().Counter("ingest_index_failures_total",
		"Index builds that failed permanently (fatal or retries exhausted).")
	metricIndexBacklog = obs.Default().Gauge("ingest_index_backlog",
		"Committed steps waiting for or in an index build, summed over every running builder.")
	metricIndexSeconds = obs.Default().Histogram("ingest_index_build_seconds",
		"Wall time of one successful index build and publish.", nil)
)
