// Package serve is the interactive query service: an HTTP/JSON front-end
// over fastquery sources that exposes the paper's operations — compound
// range queries and conditional histograms at arbitrary resolution — the
// way the visualization client consumes them during drill-down.
//
// Three layers make it production-shaped rather than a thin wrapper:
//
//   - a canonical plan layer (query.Canonical) that normalizes equivalent
//     queries to one deterministic cache key,
//   - a result cache with request coalescing (Cache), so repeated and
//     concurrent identical drill-downs cost one backend evaluation,
//   - adaptive admission control (Gate), a self-tuning concurrency
//     limiter with priority-class shedding: under a burst, ingest and
//     cold sweeps shed first (429/503 with a measured Retry-After),
//     cached-key probes bypass the gate entirely, and under sustained
//     pressure eligible histograms are answered from a degraded path
//     (brownout) instead of being rejected.
package serve

import (
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/shard"
)

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
}

// DatasetInfo describes one served dataset.
type DatasetInfo struct {
	Name      string   `json:"name"`
	Steps     int      `json:"steps"`
	Variables []string `json:"variables"`
}

// StepInfo describes one timestep of a dataset.
type StepInfo struct {
	Step    int    `json:"step"`
	Indexed bool   `json:"indexed"`
	Rows    uint64 `json:"rows,omitempty"` // populated with ?detail=1
	// IndexState is "indexed", "pending" (live step awaiting its
	// background build), "failed" (permanent build failure, scan-only), or
	// "none" (static dataset without a sidecar).
	IndexState string `json:"index_state,omitempty"`
}

// StepsBody is the /v1/steps response.
type StepsBody struct {
	Dataset string `json:"dataset"`
	Steps   int    `json:"steps"`
	// Live marks a dataset accepting POST /v1/ingest; Generation is its
	// catalog generation, bumped on every commit and index publish.
	Live       bool       `json:"live,omitempty"`
	Generation uint64     `json:"generation,omitempty"`
	Detail     []StepInfo `json:"detail,omitempty"`
}

// VarInfo is one variable's metadata at a timestep. Min/Max come from the
// index metadata when available (free) or a column scan otherwise.
type VarInfo struct {
	Name string  `json:"name"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// VarsBody is the /v1/vars response.
type VarsBody struct {
	Dataset string    `json:"dataset"`
	Step    int       `json:"step"`
	Vars    []VarInfo `json:"vars"`
}

// ResponseMeta is the part of a response the request pipeline fills in, the
// same way for every endpoint that embeds it: how the answer was obtained
// and how far it can be trusted.
type ResponseMeta struct {
	// Outcome is the result-cache disposition (computed | hit | coalesced);
	// absent on endpoints that bypass the result cache.
	Outcome string `json:"outcome,omitempty"`
	// Degraded marks a brownout answer: the server was overloaded and
	// responded from DegradedMode ("coarse-cache": a cached coarser
	// resolution of the same request; "index-only": an approximate
	// histogram computed from bitmaps alone, counts an upper bound). The
	// X-Degraded response header carries the same mode.
	Degraded     bool   `json:"degraded,omitempty"`
	DegradedMode string `json:"degraded_mode,omitempty"`
	// Partial marks a degraded scatter-gather answer: the shards in
	// FailedShards were unreachable and the response merges only the
	// survivors (FailedSteps: the steps of a multi-step operation that
	// came up short). The X-Partial response header mirrors it.
	Partial      bool    `json:"partial,omitempty"`
	FailedSteps  []int   `json:"failed_steps,omitempty"`
	FailedShards []int   `json:"failed_shards,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	// Trace is the request's span tree, included when ?debug=trace is set;
	// Explain the execution profile, when ?debug=explain is.
	Trace   *obs.SpanData `json:"trace,omitempty"`
	Explain *ExplainBody  `json:"explain,omitempty"`
}

// QueryBody is the /v1/query response: the selection summary for a
// compound range query.
type QueryBody struct {
	Dataset     string  `json:"dataset"`
	Step        int     `json:"step"`
	Query       string  `json:"query"`
	Plan        string  `json:"plan"` // canonical form, the cache key
	Backend     string  `json:"backend"`
	Rows        uint64  `json:"rows"`
	Matches     uint64  `json:"matches"`
	Selectivity float64 `json:"selectivity"`
	ResponseMeta
}

// Hist1DBody is the /v1/hist1d response.
type Hist1DBody struct {
	Dataset string    `json:"dataset"`
	Step    int       `json:"step"`
	Plan    string    `json:"plan,omitempty"`
	Backend string    `json:"backend"`
	Var     string    `json:"var"`
	Binning string    `json:"binning"`
	Edges   []float64 `json:"edges"`
	Counts  []uint64  `json:"counts"`
	Total   uint64    `json:"total"`
	ResponseMeta

	hist *histogram.Cells1D // the answer, whose counts answerJSON writes; Counts is the decoded field
}

// Hist2DBody is the /v1/hist2d response. Counts are row-major:
// Counts[iy*len(XEdges-1) + ix].
type Hist2DBody struct {
	Dataset string    `json:"dataset"`
	Step    int       `json:"step"`
	Plan    string    `json:"plan,omitempty"`
	Backend string    `json:"backend"`
	XVar    string    `json:"xvar"`
	YVar    string    `json:"yvar"`
	Binning string    `json:"binning"`
	XEdges  []float64 `json:"xedges"`
	YEdges  []float64 `json:"yedges"`
	Counts  []uint64  `json:"counts"`
	Total   uint64    `json:"total"`
	ResponseMeta

	hist *histogram.Cells2D // the answer, whose counts answerJSON writes; Counts is the decoded field
}

// Sweep2DBody is the /v1/sweep2d response: one conditional 2D histogram
// per requested timestep, summarized by per-step match totals (the full
// per-step grids would dwarf any client's appetite; drill into a single
// step with /v1/hist2d).
type Sweep2DBody struct {
	Dataset string `json:"dataset"`
	Steps   []int  `json:"steps"`
	Plan    string `json:"plan,omitempty"`
	Backend string `json:"backend"`
	// Mode is "scatter" when the steps were scattered across the shard
	// fleet, "local" when they ran in-process.
	Mode   string   `json:"mode"`
	XVar   string   `json:"xvar"`
	YVar   string   `json:"yvar"`
	Totals []uint64 `json:"totals"` // per step, aligned with Steps
	Total  uint64   `json:"total"`
	// On a Partial sweep FailedSteps lists the steps that merged without
	// every shard (their totals are short), FailedShards the shards missing.
	ResponseMeta
}

// BuildInfo is the binary/runtime identity block of /v1/stats.
type BuildInfo struct {
	Version       string  `json:"version,omitempty"`  // module version (devel in tests)
	Path          string  `json:"path,omitempty"`     // main module path
	Revision      string  `json:"revision,omitempty"` // vcs.revision when stamped
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Goroutines    int     `json:"goroutines"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// StatsBody is the /v1/stats response: cache, admission and backend
// counters for operations and tests. The legacy top-level counters are
// read from the same registry instruments that /metrics exports; Metrics
// is the full registry snapshot (server + process-wide series) in JSON.
type StatsBody struct {
	Cache        CacheStats `json:"cache"`
	Admission    GateStats  `json:"admission"`
	BackendCalls uint64     `json:"backend_calls"`
	// Canceled counts requests abandoned by their client (answered 499);
	// ExecTimeouts counts requests that exceeded Config.ExecTimeout (504);
	// Panics counts handler panics converted to 500.
	Canceled     uint64 `json:"canceled"`
	ExecTimeouts uint64 `json:"exec_timeouts"`
	Panics       uint64 `json:"panics"`
	// IndexFailures lists, per dataset, timesteps whose sidecar index was
	// rejected (truncated or corrupt) and now serve scan-backend only.
	IndexFailures map[string][]fastquery.IndexFailure `json:"index_failures,omitempty"`
	// Ingest reports, per live dataset, the ingestion pipeline's state:
	// catalog generation, committed vs indexed step counts and their lag,
	// and the background builder's counters.
	Ingest map[string]IngestStats `json:"ingest,omitempty"`
	// Sharding is present on a scatter-gather frontend: the fleet-wide
	// aggregate plus each shard's executor snapshot and pool counters.
	Sharding *ShardingStats `json:"sharding,omitempty"`
	// Sessions is the analysis-session store's state: live sessions,
	// stored selection bytes, refinement reuse and eviction counters.
	Sessions *session.Stats `json:"sessions,omitempty"`
	Build    BuildInfo      `json:"build"`
	Metrics  []obs.Metric   `json:"metrics"`
}

// ShardingStats is the frontend's fleet view in /v1/stats.
type ShardingStats struct {
	Shards    int    `json:"shards"`
	Scatters  uint64 `json:"scatters"`  // requests executed via scatter-gather
	Fragments uint64 `json:"fragments"` // plan fragments dispatched
	Partials  uint64 `json:"partials"`  // responses merged without every shard
	// FleetSteps is the total step count reported by shard 0 (every shard
	// serves the same shared dataset directory, so they agree when
	// healthy).
	FleetSteps  int                 `json:"fleet_steps"`
	ShardStatus []shard.ShardStatus `json:"shard_status"`
}

// IngestStats is one live dataset's entry in StatsBody.Ingest.
type IngestStats struct {
	Generation uint64 `json:"generation"`
	Committed  int    `json:"committed"`
	Indexed    int    `json:"indexed"`
	// Lag is committed − indexed: how far index building trails ingestion.
	Lag int `json:"lag"`
	// Backlog counts steps queued for or currently at a build worker.
	Backlog       int    `json:"backlog"`
	IndexesBuilt  uint64 `json:"indexes_built"`
	IndexRetries  uint64 `json:"index_retries"`
	IndexFailures uint64 `json:"index_failures"`
}

// IngestColumn is one column of a timestep in an IngestBody; exactly one
// of Float or Int must be set.
type IngestColumn struct {
	Name  string    `json:"name"`
	Float []float64 `json:"float,omitempty"`
	Int   []int64   `json:"int,omitempty"`
}

// IngestBody is the POST /v1/ingest request: one complete timestep. Every
// declared dataset variable must appear exactly once, all columns the same
// length.
type IngestBody struct {
	// Dataset may instead be given as a ?dataset= query parameter.
	Dataset string         `json:"dataset,omitempty"`
	Columns []IngestColumn `json:"columns"`
}

// SessionListBody is the GET /v1/session response.
type SessionListBody struct {
	Sessions []session.Info `json:"sessions"`
}

// SessionSelectBody is the POST /v1/session/{id}/select response: the
// selection summary after evaluating (or incrementally refining) a named
// server-side selection.
type SessionSelectBody struct {
	Session string `json:"session"`
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	Step    int    `json:"step"`
	Query   string `json:"query"` // delta predicate as received
	Plan    string `json:"plan"`  // delta predicate, canonical
	// Expr is the canonical effective predicate after this operation — the
	// whole refinement chain folded into one parseable expression.
	Expr    string `json:"expr"`
	Backend string `json:"backend"`
	// Refine is the refinement mode applied ("" for a fresh selection);
	// Refines counts the chain's incremental refinements so far; Reused
	// reports whether the stored bitmap was reused (only the delta
	// predicate evaluated) rather than re-evaluating from scratch.
	Refine      string  `json:"refine,omitempty"`
	Refines     int     `json:"refines,omitempty"`
	Reused      bool    `json:"reused,omitempty"`
	Rows        uint64  `json:"rows"`
	Matches     uint64  `json:"matches"`
	Selectivity float64 `json:"selectivity"`
	// Stored is false when the result was refused storage: a partial merge
	// must never become the authoritative selection. SizeBytes is the
	// stored selection's accounted memory.
	SizeBytes int64 `json:"size_bytes,omitempty"`
	Stored    bool  `json:"stored"`
	ResponseMeta
}

// SessionTrackBody is the POST /v1/session/{id}/track response: the
// selection's particle IDs followed across timesteps, one membership
// count per step.
type SessionTrackBody struct {
	Session string `json:"session"`
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	Step    int    `json:"step"` // the step the selection was brushed on
	Backend string `json:"backend"`
	IDVar   string `json:"id_var"`
	IDs     int    `json:"ids"`  // particles followed
	Expr    string `json:"expr"` // canonical id-membership predicate
	Steps   []int  `json:"steps"`
	// Counts[i] is how many of the selected IDs appear at Steps[i].
	Counts []uint64 `json:"counts"`
	// Stored is false when the track was refused storage because a step in
	// FailedSteps merged without every shard (store-or-reject).
	Stored bool `json:"stored"`
	ResponseMeta
}

// ViewPanel is one conditional 1D histogram panel of a views response.
type ViewPanel struct {
	Var    string    `json:"var"`
	Edges  []float64 `json:"edges"`
	Counts []uint64  `json:"counts"`
	Total  uint64    `json:"total"`
}

// SessionViewsBody is the GET /v1/session/{id}/views JSON response (the
// format=png variant streams a parallel-coordinates PNG instead).
type SessionViewsBody struct {
	Session string `json:"session"`
	Name    string `json:"name"`
	Dataset string `json:"dataset"`
	Step    int    `json:"step"`
	Backend string `json:"backend"`
	// Expr is the predicate the view renders under: the selection's
	// effective expression, or the tracked ID-membership predicate once
	// the selection has been tracked (Temporal true, Steps the tracked
	// steps).
	Expr     string      `json:"expr"`
	Vars     []string    `json:"vars"`
	Steps    []int       `json:"steps"`
	Temporal bool        `json:"temporal"`
	Panels   []ViewPanel `json:"panels"`
	ResponseMeta
}

// IngestResponse acknowledges a durably committed timestep.
type IngestResponse struct {
	Dataset    string `json:"dataset"`
	Step       int    `json:"step"`
	Rows       uint64 `json:"rows"`
	Bytes      int64  `json:"bytes"`
	Generation uint64 `json:"generation"`
	Steps      int    `json:"steps"` // total committed steps after this one
}
