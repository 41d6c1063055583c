package scan

import (
	"context"

	"repro/internal/obs"
)

// Package-level instruments for the sequential-scan baseline, registered
// in the process-wide registry alongside the fastbit instruments so the
// index-vs-scan comparison the paper makes is visible on one scrape.
var (
	metricScanRows = obs.Default().Counter("scan_rows_total",
		"Records visited by sequential-scan operations.")
	metricScanSeconds = obs.Default().Histogram("scan_seconds",
		"Wall time of one sequential-scan operation.", nil)
)

// observeScan records one completed scan pass over n rows taking sec
// seconds, and charges the rows to the request's per-query cost
// accumulator when the context carries one.
func observeScan(ctx context.Context, n int, sec float64) {
	metricScanRows.Add(uint64(n))
	metricScanSeconds.Observe(sec)
	obs.CostFromContext(ctx).AddRows(uint64(n))
}
