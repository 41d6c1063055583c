package cluster

import (
	"sync"

	"repro/internal/obs"
)

// Package-level instruments for the RPC transport, registered in the
// process-wide registry. Each series aggregates across every pool and
// caller in the process, which is what a scrape wants.
var (
	metricRPCCalls = obs.Default().Counter("cluster_rpc_calls_total",
		"RPC attempts made to workers, including retries and failovers.")
	metricRetries = obs.Default().Counter("cluster_retries_total",
		"RPC attempts beyond the first against one worker.")
	metricTimeouts = obs.Default().Counter("cluster_timeouts_total",
		"RPC attempts abandoned on the per-attempt deadline.")
	metricReconnects = obs.Default().Counter("cluster_reconnects_total",
		"Re-dials of previously working worker connections.")
	metricFailovers = obs.Default().Counter("cluster_failovers_total",
		"Calls moved to another worker after their primary failed.")
	metricProbes = obs.Default().Counter("cluster_probes_total",
		"Health pings sent to unhealthy workers.")
	metricRecoveries = obs.Default().Counter("cluster_recoveries_total",
		"Workers probed back to health.")
	metricHedges = obs.Default().Counter("cluster_hedges_total",
		"Extra hedged RPC attempts launched against replica workers.")
	metricBreakerTrips = obs.Default().Counter("cluster_breaker_trips_total",
		"Circuit-breaker trips (closed or half-open to open), across every worker.")
	metricRetryBudgetTokens = obs.Default().Gauge("cluster_retry_budget_tokens",
		"Tokens left in the retry budget shared by retries, failovers and hedges.")
	metricRetryBudgetExhausted = obs.Default().Counter("cluster_retry_budget_exhausted_total",
		"Extra attempts (retries, failovers, hedges) skipped because the retry budget was empty.")
)

// openPools is every pool dialed and not yet closed. The worker gauges
// are counted over it at export time, so a closed pool's workers leave
// them.
var openPools = struct {
	sync.Mutex
	m map[*Pool]struct{}
}{m: map[*Pool]struct{}{}}

// openWorkers returns how many workers of the open pools satisfy pred.
func openWorkers(pred func(*Caller) bool) float64 {
	openPools.Lock()
	defer openPools.Unlock()
	n := 0
	for p := range openPools.m {
		for _, c := range p.callers {
			if pred(c) {
				n++
			}
		}
	}
	return float64(n)
}

func init() {
	obs.Default().GaugeFunc("cluster_unhealthy_workers",
		"Workers currently marked unhealthy, across every open pool.",
		func() float64 { return openWorkers(func(c *Caller) bool { return !c.Healthy() }) })
	obs.Default().GaugeFunc("cluster_breaker_open",
		"Worker circuit breakers currently open, across every open pool.",
		func() float64 { return openWorkers(func(c *Caller) bool { return c.BreakerState() == BreakerOpen }) })
}

// rpcSecondsFor returns the per-worker RPC latency histogram. Callers
// cache the result; registration is idempotent.
func rpcSecondsFor(addr string) *obs.Histogram {
	return obs.Default().Histogram("cluster_rpc_seconds",
		"Wall time of one RPC attempt to a worker.", nil, obs.L("worker", addr))
}

// breakerStateFor returns the per-worker breaker state gauge
// (0 closed, 1 half-open, 2 open). Registration is idempotent.
func breakerStateFor(addr string) *obs.Gauge {
	return obs.Default().Gauge("cluster_breaker_state",
		"Circuit-breaker state per worker: 0 closed, 1 half-open, 2 open.",
		obs.L("worker", addr))
}
