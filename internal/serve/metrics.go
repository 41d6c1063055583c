package serve

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// serverMetrics binds the server's instruments to its registry. Request
// counters are labelled by endpoint and status code; registration is
// idempotent, so the per-request lookup in requests() resolves to an
// existing series after the first hit.
type serverMetrics struct {
	reg *obs.Registry

	inflight    *obs.Gauge
	slowQueries *obs.Counter
}

func newServerMetrics(reg *obs.Registry, cache *Cache, gate *Gate) *serverMetrics {
	m := &serverMetrics{
		reg: reg,
		inflight: reg.Gauge("serve_inflight_requests",
			"HTTP requests currently being handled."),
		slowQueries: reg.Counter("serve_slow_queries_total",
			"Requests that exceeded the slow-query threshold."),
	}

	// The cache and gate keep their own counters (their Stats snapshots
	// are the legacy /v1/stats payload); the registry reads them through
	// callbacks at export time. Last-wins rebinding means a fresh Server
	// in tests repoints these at its own cache/gate.
	reg.CounterFunc("serve_cache_hits_total",
		"Result-cache lookups served from a stored entry.",
		func() uint64 { return cache.Stats().Hits })
	reg.CounterFunc("serve_cache_misses_total",
		"Result-cache lookups that ran the compute function.",
		func() uint64 { return cache.Stats().Misses })
	reg.CounterFunc("serve_cache_evictions_total",
		"Result-cache entries evicted by the byte budget.",
		func() uint64 { return cache.Stats().Evictions })
	reg.CounterFunc("serve_cache_coalesced_total",
		"Lookups that waited on an identical in-flight computation.",
		func() uint64 { return cache.Stats().Coalesced })
	reg.CounterFunc("serve_cache_abandoned_total",
		"Waiters that left before their flight finished.",
		func() uint64 { return cache.Stats().Abandoned })
	reg.GaugeFunc("serve_cache_entries",
		"Result-cache entries currently stored.",
		func() float64 { return float64(cache.Stats().Entries) })
	reg.GaugeFunc("serve_cache_inflight",
		"Result-cache computations currently in flight.",
		func() float64 { return float64(cache.Stats().Inflight) })

	reg.GaugeFunc("serve_admission_in_flight",
		"Requests currently holding a concurrency slot.",
		func() float64 { return float64(gate.Stats().InFlight) })
	reg.GaugeFunc("serve_admission_queued",
		"Requests currently waiting for a slot.",
		func() float64 { return float64(gate.Stats().Queued) })

	// Adaptive overload-control instruments. serve_limit is the live
	// (possibly self-tuned) concurrency limit; per-class shed counters and
	// the degraded-answer counters are pre-registered at zero so dashboards
	// and scrapers see the full series set before the first overload.
	reg.GaugeFunc("serve_limit",
		"Current admission concurrency limit (self-tuned in adaptive modes).",
		func() float64 { return float64(gate.Limit()) })
	reg.GaugeFunc("serve_brownout_active",
		"1 while sustained pressure has armed degraded histogram answers.",
		func() float64 {
			if gate.BrownoutActive() {
				return 1
			}
			return 0
		})
	for _, c := range Classes() {
		c := c
		reg.CounterFunc("serve_shed_total",
			"Requests shed by admission control, by priority class.",
			func() uint64 { return gate.ShedCount(c) },
			obs.L("class", c.String()))
		reg.CounterFunc("serve_admitted_total",
			"Requests admitted past the gate, by priority class.",
			func() uint64 { return gate.AdmittedCount(c) },
			obs.L("class", c.String()))
	}
	for _, mode := range []string{degradedCoarse, degradedIndexOnly} {
		m.degraded(mode) // pre-register both label values at zero
	}
	return m
}

// degraded returns the serve_degraded_total series for one brownout mode.
func (m *serverMetrics) degraded(mode string) *obs.Counter {
	return m.reg.Counter("serve_degraded_total",
		"Histogram requests answered from a degraded (brownout) path.",
		obs.L("mode", mode))
}

// requests returns the serve_requests_total series for one endpoint and
// status code.
func (m *serverMetrics) requests(endpoint string, code int) *obs.Counter {
	return m.reg.Counter("serve_requests_total",
		"HTTP requests handled, by endpoint and status code.",
		obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(code)))
}

// seconds returns the per-endpoint request latency histogram.
func (m *serverMetrics) seconds(endpoint string) *obs.Histogram {
	return m.reg.Histogram("serve_request_seconds",
		"Wall time of one HTTP request.", nil, obs.L("endpoint", endpoint))
}

// statusRecorder captures the response status so the middleware can count
// the request under the code the handler actually wrote.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	if !sr.wrote {
		sr.code = code
		sr.wrote = true
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	sr.wrote = true // implicit 200
	return sr.ResponseWriter.Write(b)
}

// instrumented wraps a handler with the per-request observability spine:
// a trace rooted at the endpoint (ID exposed via X-Trace-Id), exactly one
// serve_requests_total increment per request — panics included — a
// latency observation, and slow-query capture.
func (s *Server) instrumented(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := obs.NewTrace("", endpoint)
		if tr != nil {
			w.Header().Set("X-Trace-Id", tr.ID)
			r = r.WithContext(obs.ContextWithSpan(r.Context(), tr.Root()))
		}
		// The run rides the context so the pipeline fills in the very record
		// finish folds into a slow-query entry: what distinguishes a slow
		// partial scatter from a clean slow scan. Handler and finish run on
		// the same goroutine, so no lock.
		x := &run{endpoint: endpoint, start: start, outcome: Computed}
		r = r.WithContext(context.WithValue(r.Context(), runCtxKey{}, x))
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		s.metrics.inflight.Add(1)
		finished := false
		finish := func(code int) {
			if finished {
				return
			}
			finished = true
			dur := time.Since(start)
			s.metrics.inflight.Add(-1)
			s.metrics.requests(endpoint, code).Inc()
			// An SLO-bad request is a server failure or an over-target
			// latency: exactly the traffic that burns error budget. 499s
			// (client went away) and shed 4xxs do not burn budget.
			s.burn.Record(code < 500 && dur <= s.slo)
			traceID := ""
			if tr != nil {
				traceID = tr.ID
			}
			// The exemplar links the latency bucket this request landed in
			// back to its trace, so a scrape that shows a slow bucket also
			// names a concrete request to pull up.
			s.metrics.seconds(endpoint).ObserveWithExemplar(dur.Seconds(), traceID)
			if tr == nil {
				return
			}
			tr.Root().End()
			if s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold {
				s.metrics.slowQueries.Inc()
				entry := obs.SlowEntry{
					Time:       time.Now(),
					TraceID:    tr.ID,
					Endpoint:   endpoint,
					DurationMS: float64(dur) / float64(time.Millisecond),
					Status:     code,
					Detail:     r.URL.RawQuery,
					Trace:      tr.Data(),

					Shards:      x.shards,
					Degraded:    x.degraded,
					CacheSource: x.cacheSource(),
				}
				if x.res != nil {
					entry.Fragments, entry.Partial, entry.BudgetExhausted = x.res.Fragments, x.res.Partial, x.res.BudgetExhausted
				}
				s.slowLog.Add(entry)
				s.logger.Info("slow query",
					"endpoint", endpoint, "trace_id", tr.ID,
					"duration", dur, "status", code, "query", r.URL.RawQuery)
			}
		}
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					finish(499)
					panic(p)
				}
				// Count the panic as the 500 the outer recovery will write,
				// then let that recovery log and respond.
				finish(http.StatusInternalServerError)
				panic(p)
			}
			finish(rec.code)
		}()
		h(rec, r)
	}
}

// traceEcho returns the request's span tree when ?debug=trace was asked
// for, nil otherwise. The snapshot is taken mid-request (the root span is
// still open), so durations reflect time spent so far — which for the
// serialization point is everything except writing the body.
func traceEcho(r *http.Request) *obs.SpanData {
	if r.FormValue("debug") != "trace" {
		return nil
	}
	sp := obs.SpanFromContext(r.Context())
	if sp == nil {
		return nil
	}
	tr := sp.Trace()
	if tr == nil {
		return nil
	}
	return tr.Data()
}
