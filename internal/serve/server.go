package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/session"
	"repro/internal/shard"
)

// DefaultCacheBytes is the result cache's budget when Config.CacheBytes
// is 0.
const DefaultCacheBytes = 64 << 20

// Config parameterises a Server. Zero values take the documented
// defaults; pass a negative value to turn a bounded feature off
// entirely.
type Config struct {
	// CacheBytes bounds the bytes the result cache stores, each result
	// charged by plan.Result.CacheBytes. A new result may hold an eighth
	// of it until a hit promotes it to the rest (plan.Store), so answers
	// asked for once never fill it. 0 means DefaultCacheBytes (64 MiB);
	// negative disables storage (coalescing still applies).
	CacheBytes int
	// Concurrency is the number of requests allowed to run backend work
	// at once. Default 8.
	Concurrency int
	// QueueDepth is the number of requests allowed to wait for a slot
	// before new arrivals are shed with 429. 0 means the default
	// (2x Concurrency); negative means no queue at all.
	QueueDepth int
	// QueueTimeout bounds how long a queued request waits before 503.
	// Default 2s.
	QueueTimeout time.Duration
	// ExecTimeout bounds backend execution per request; expiry cancels the
	// in-flight work (cooperatively, at the backends' row checkpoints) and
	// returns 504. 0 means the default (30s); negative disables the bound.
	ExecTimeout time.Duration
	// SlowThreshold is the latency beyond which a request is recorded in
	// the slow-query log and counted by serve_slow_queries_total. 0 means
	// the default (250ms); negative disables slow-query capture.
	SlowThreshold time.Duration
	// Logger receives the server's structured JSON-lines log output.
	// Nil means a logger writing to stderr.
	Logger *obs.Logger

	// LimitMode selects the admission limiter: "fixed" (default, the
	// static gate) or "aimd" (self-tuning against SLO).
	LimitMode string
	// SLO is the latency target the adaptive limiter steers the windowed
	// p95 toward. 0 means the gate default (250ms).
	SLO time.Duration
	// AdjustEvery is the limiter's minimum adjustment interval. 0 means
	// the gate default (250ms).
	AdjustEvery time.Duration
	// Brownout enables degraded histogram answers (coarser cached
	// resolution, or index-only approximation) under sustained pressure,
	// instead of shedding.
	Brownout bool

	// BurnFast and BurnSlow are the lookbacks of the SLO burn-rate
	// monitor, which counts a request "bad" when it returns a 5xx or takes
	// longer than SLO. Zero means the monitor defaults (5m / 1h).
	BurnFast, BurnSlow time.Duration
	// BurnThreshold is the burn rate both windows must reach to fire a
	// breach (0 means 1.0 — consuming budget exactly as fast as it
	// accrues).
	BurnThreshold float64
	// BurnCooldown is the minimum gap between breach firings (0 means
	// the slow window).
	BurnCooldown time.Duration

	// ProfileDir, when set, arms the flight recorder: each SLO burn-rate
	// breach captures CPU + heap profiles and the slow-query ring into a
	// bounded spool of capture directories under this path.
	ProfileDir string
	// ProfileCaptures bounds the capture spool (0 means 8).
	ProfileCaptures int
	// ProfileCPU is the CPU-profile sampling window per capture (0 means
	// 2s).
	ProfileCPU time.Duration
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 2 * c.Concurrency
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	switch {
	case c.ExecTimeout == 0:
		c.ExecTimeout = 30 * time.Second
	case c.ExecTimeout < 0:
		c.ExecTimeout = 0
	}
	switch {
	case c.SlowThreshold == 0:
		c.SlowThreshold = 250 * time.Millisecond
	case c.SlowThreshold < 0:
		c.SlowThreshold = 0
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(os.Stderr, "serve")
	}
	return c
}

// dataset is one served dataset: the open source, the snapshot requests
// read, and a registry of open timesteps shared by all requests (Source
// and Step are safe for concurrent readers). A live dataset additionally
// carries the ingestion state (catalog, writer, builder, watcher) in live.
type dataset struct {
	name string
	src  *fastquery.Source
	live *liveState // nil for a static (read-only) dataset
	// snap is the dataset's current state. It is replaced whole, never
	// changed in place, and a request loads it once.
	snap atomic.Pointer[snapshot]

	mu    sync.Mutex
	steps map[int]*stepHandle
	// retired holds step handles replaced by a hot upgrade (scan → fastbit
	// after the sidecar index landed). They may still be referenced by
	// in-flight queries, so they are closed only when the dataset closes.
	// Bounded: each step upgrades at most once per index publish.
	retired []*fastquery.Step
}

// newDataset serves src under name. man is a live dataset's manifest, as
// committed before src opened so that src's steps cover it; nil if static.
func newDataset(name string, src *fastquery.Source, man *ingest.Manifest) *dataset {
	d := &dataset{name: name, src: src, steps: map[int]*stepHandle{}}
	d.snap.Store(&snapshot{man: man, ds: src.Dataset()})
	return d
}

// snapshot is one state of a served dataset: its catalog manifest (nil
// for a static dataset) and the step metadata the source loaded after
// that manifest, listing at least the steps it commits. Every request
// reads one snapshot, so the step count, the variables and each step's
// generation it reports describe one state.
type snapshot struct {
	man *ingest.Manifest
	ds  *colstore.Dataset
}

// steps returns the number of timesteps: a live dataset's committed ones.
func (sn *snapshot) steps() int {
	if sn.man != nil {
		return len(sn.man.Steps)
	}
	return sn.ds.Meta.Steps
}

// variables returns a copy of the dataset's declared variables.
func (sn *snapshot) variables() []string { return slices.Clone(sn.ds.Meta.Variables) }

// gen returns timestep t's catalog generation — the value at its last
// state change (commit or index publish). Static datasets have no
// catalog; every step is generation 0 forever.
func (sn *snapshot) gen(t int) uint64 {
	if sn.man == nil || t < 0 || t >= len(sn.man.Steps) {
		return 0
	}
	return sn.man.Steps[t].Gen
}

// stepHandle pairs an open step with the catalog generation it was opened
// at, so an index publish (which bumps the step's generation) triggers a
// reopen on the next access.
type stepHandle struct {
	st  *fastquery.Step
	gen uint64
}

// step returns the shared open handle for timestep t, opening it on first
// use. When the step's generation in sn has moved past the handle's (its
// index was published after the handle was opened), the handle is reopened
// so the fastbit backend becomes available; the old handle is retired, not
// closed, because concurrent requests may still be reading through it.
func (d *dataset) step(sn *snapshot, t int) (*fastquery.Step, error) {
	gen := sn.gen(t)
	d.mu.Lock()
	defer d.mu.Unlock()
	if h, ok := d.steps[t]; ok && h.gen >= gen {
		return h.st, nil
	}
	st, err := d.src.OpenStep(t)
	if err != nil {
		return nil, err
	}
	if h, ok := d.steps[t]; ok {
		d.retired = append(d.retired, h.st)
	}
	d.steps[t] = &stepHandle{st: st, gen: gen}
	return st, nil
}

func (d *dataset) close() {
	if d.live != nil {
		d.live.stopAll()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, h := range d.steps {
		h.st.Close() //nolint:errcheck // read-only handles
	}
	for _, st := range d.retired {
		st.Close() //nolint:errcheck // read-only handles
	}
	d.steps = map[int]*stepHandle{}
	d.retired = nil
	d.src.Close() //nolint:errcheck // idempotent
}

// Server is the HTTP query service. Create with New, register datasets
// with AddDataset, then use it as an http.Handler.
type Server struct {
	cfg   Config
	cache *Cache
	gate  *Gate
	mux   *http.ServeMux

	reg      *obs.Registry
	metrics  *serverMetrics
	slowLog  *obs.SlowLog
	logger   *obs.Logger
	started  time.Time
	slo      time.Duration       // latency target the burn monitor judges against
	burn     *obs.BurnMonitor    // SLO burn-rate monitor fed by instrumented()
	flight   *obs.FlightRecorder // nil unless ProfileDir armed it
	sessions *session.Manager    // analysis sessions: named selections + tracks

	mu       sync.RWMutex
	datasets map[string]*dataset
	order    []string
	shard    *shard.Client // optional scatter client: this server is a frontend

	backendCalls     *obs.Counter
	canceled         *obs.Counter // requests abandoned by their client (499)
	execTimeouts     *obs.Counter // requests that hit ExecTimeout (504)
	panics           *obs.Counter // handler panics converted to 500
	probeBypass      *obs.Counter // cached-key probes answered without a gate slot
	scatters         *obs.Counter // operations executed through the scatter client
	scatterFrags     *obs.Counter // plan fragments dispatched to shard workers
	partials         *obs.Counter // responses merged without every shard
	explains         *obs.Counter // requests that asked for an execution profile
	federationErrors *obs.Counter // shard scrapes that failed during /metrics federation
	draining         atomic.Bool  // /readyz reports 503 while set

	// brownoutSem bounds concurrent index-only brownout rescues so the
	// degraded path cannot itself become the overload.
	brownoutSem chan struct{}
}

// GateConfig is the admission gate this configuration describes, defaults
// applied. New builds the HTTP gate from it; a shard worker builds the
// gate in front of its fragment RPCs from the same call.
func (c Config) GateConfig() GateConfig {
	c = c.withDefaults()
	mode, _ := ParseLimitMode(c.LimitMode) // unknown modes fall back to fixed
	return GateConfig{
		Limit:        c.Concurrency,
		QueueDepth:   c.QueueDepth,
		QueueTimeout: c.QueueTimeout,
		Mode:         mode,
		SLO:          c.SLO,
		AdjustEvery:  c.AdjustEvery,
	}
}

// New creates a Server with no datasets.
func New(cfg Config) *Server {
	// From the raw config: withDefaults turns "negative = off" into 0, which
	// a second application would read as "use the default".
	gate := NewGate(cfg.GateConfig())
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:         cfg,
		cache:       NewCache(cfg.CacheBytes),
		gate:        gate,
		mux:         http.NewServeMux(),
		reg:         reg,
		slowLog:     obs.NewSlowLog(0),
		logger:      cfg.Logger,
		started:     time.Now(),
		datasets:    map[string]*dataset{},
		brownoutSem: make(chan struct{}, brownoutWorkers),
	}
	s.metrics = newServerMetrics(reg, s.cache, s.gate)
	s.backendCalls = reg.Counter("serve_backend_calls_total",
		"Backend evaluations run (cache misses that executed work).")
	s.canceled = reg.Counter("serve_canceled_total",
		"Requests abandoned by their client before completion (499).")
	s.execTimeouts = reg.Counter("serve_exec_timeouts_total",
		"Requests that hit the execution timeout (504).")
	s.panics = reg.Counter("serve_panics_total",
		"Handler panics converted to 500 responses.")
	s.probeBypass = reg.Counter("serve_probe_bypass_total",
		"Cached-key probes answered without consuming a gate slot.")
	s.scatters = reg.Counter("serve_scatter_total",
		"Operations executed through the shard scatter client.")
	s.scatterFrags = reg.Counter("serve_scatter_fragments_total",
		"Plan fragments dispatched to shard workers.")
	s.partials = reg.Counter("serve_partial_total",
		"Responses merged without every shard (degraded scatter answers).")
	s.explains = reg.Counter("serve_explain_total",
		"Requests that asked for a per-query execution profile (?debug=explain).")
	s.federationErrors = reg.Counter("serve_federation_errors_total",
		"Shard metric scrapes that failed during /metrics federation.")

	// SLO burn-rate monitoring and breach-triggered capture. The monitor
	// always runs (its gauges are the alerting surface); the flight
	// recorder only when a spool directory was configured.
	s.slo = cfg.SLO
	if s.slo <= 0 {
		s.slo = 250 * time.Millisecond
	}
	if cfg.ProfileDir != "" {
		fr, err := obs.NewFlightRecorder(cfg.ProfileDir, cfg.ProfileCaptures, cfg.ProfileCPU)
		if err != nil {
			s.logger.Error("flight recorder disabled", "error", err.Error())
		} else {
			s.flight = fr
		}
	}
	s.burn = obs.NewBurnMonitor(obs.BurnConfig{
		Fast:      cfg.BurnFast,
		Slow:      cfg.BurnSlow,
		Threshold: cfg.BurnThreshold,
		Cooldown:  cfg.BurnCooldown,
		OnBreach: func(fast, slow float64) {
			s.logger.Error("SLO burn-rate breach",
				"fast_burn", fmt.Sprintf("%.2f", fast),
				"slow_burn", fmt.Sprintf("%.2f", slow),
				"slo", s.slo.String())
			s.flight.Capture(
				fmt.Sprintf("slo-burn fast=%.2f slow=%.2f", fast, slow),
				s.slowLog,
				map[string]any{
					"fast_burn": fast,
					"slow_burn": slow,
					"slo_ms":    float64(s.slo) / float64(time.Millisecond),
				})
		},
	})
	reg.GaugeFunc("serve_slo_burn_rate",
		"SLO burn rate (bad fraction over error budget) per lookback window.",
		s.burn.FastRate, obs.L("window", "fast"))
	reg.GaugeFunc("serve_slo_burn_rate",
		"SLO burn rate (bad fraction over error budget) per lookback window.",
		s.burn.SlowRate, obs.L("window", "slow"))
	reg.CounterFunc("serve_slo_breaches_total",
		"Multi-window SLO burn-rate breaches fired.", s.burn.Breaches)
	reg.CounterFunc("serve_flight_captures_total",
		"Flight-recorder captures completed (profiles + slow log spooled to disk).",
		func() uint64 { return s.flight.Captures() })
	reg.CounterFunc("serve_flight_dropped_total",
		"Flight-recorder capture requests dropped because one was already in flight.",
		func() uint64 { return s.flight.Dropped() })

	s.mux.HandleFunc("/healthz", s.instrumented("healthz", s.handleHealth))
	s.mux.HandleFunc("/readyz", s.instrumented("readyz", s.handleReady))
	s.mux.HandleFunc("/v1/datasets", s.instrumented("datasets", s.handleDatasets))
	s.mux.HandleFunc("/v1/steps", s.instrumented("steps", s.handleSteps))
	s.mux.HandleFunc("/v1/vars", s.instrumented("vars", s.handleVars))
	s.mux.HandleFunc("/v1/query", s.pipelined("query", s.queryOp))
	s.mux.HandleFunc("/v1/hist1d", s.pipelined("hist1d", s.hist1DOp))
	s.mux.HandleFunc("/v1/hist2d", s.pipelined("hist2d", s.hist2DOp))
	s.mux.HandleFunc("/v1/sweep2d", s.pipelined("sweep2d", s.sweep2DOp))
	s.mux.HandleFunc("/v1/ingest", s.pipelined("ingest", s.ingestOp))
	s.mux.HandleFunc("/v1/stats", s.instrumented("stats", s.handleStats))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.Handle("/v1/debug/slow", s.slowLog.Handler())
	s.registerSessions()
	return s
}

// Registry returns the server's metric registry, for embedding its series
// in an external admin mux alongside obs.Default().
func (s *Server) Registry() *obs.Registry { return s.reg }

// SlowLog returns the server's slow-query log, for serving on an admin
// listener.
func (s *Server) SlowLog() *obs.SlowLog { return s.slowLog }

// SetShardClient turns this server into a scatter-gather frontend: query,
// hist1d, hist2d and sweep2d fragments are scattered to the client's shard
// workers and the mergeable partials combined, instead of evaluating
// locally. Replaces (and closes) any previous client. The server still
// needs its datasets registered with AddDataset — planning reads row
// counts and variable metadata locally (every node shares the dataset
// directory).
func (s *Server) SetShardClient(c *shard.Client) {
	s.mu.Lock()
	old := s.shard
	s.shard = c
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// shardClient returns the configured scatter client, or nil.
func (s *Server) shardClient() *shard.Client {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shard
}

// AddDataset opens a dataset directory and serves it under name.
func (s *Server) AddDataset(name, dir string) error {
	src, err := fastquery.Open(dir)
	if err != nil {
		return err
	}
	return s.register(newDataset(name, src, nil))
}

// register serves d, or closes its source when the name is taken.
func (s *Server) register(d *dataset) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[d.name]; dup {
		d.src.Close() //nolint:errcheck // idempotent
		return fmt.Errorf("serve: duplicate dataset %q", d.name)
	}
	s.datasets[d.name] = d
	s.order = append(s.order, d.name)
	return nil
}

// Close releases every open dataset and the scatter client, if any.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.datasets {
		d.close()
	}
	s.datasets = map[string]*dataset{}
	s.order = nil
	if s.shard != nil {
		s.shard.Close()
		s.shard = nil
	}
}

// BackendCalls returns how many backend evaluations have run (cache
// misses), for tests and the stats endpoint.
func (s *Server) BackendCalls() uint64 { return s.backendCalls.Load() }

// SetDraining switches the readiness signal: while draining, /readyz
// returns 503 so a load balancer stops routing new work here, while
// /healthz keeps reporting the process alive. Call with true before
// http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// ServeHTTP implements http.Handler. Panics in handlers become 500s with
// a counter rather than killing the whole process (http.ErrAbortHandler
// keeps its conventional meaning and is re-panicked).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Inc()
			s.logger.Error("panic in handler",
				"method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			// Best effort: if the handler already wrote headers this is a
			// no-op and the client sees a truncated response.
			writeError(w, http.StatusInternalServerError, "internal error: %v", rec)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// writeJSON encodes body before it commits to a status, so a body that
// cannot be encoded (a NaN float) is a 500 naming the error rather than a
// 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	buf, err := encodeBody(body)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeEncoded(w, status, buf)
}

// writeEncodeError answers a body that could not be encoded.
func writeEncodeError(w http.ResponseWriter, err error) {
	buf, _ := encodeBody(ErrorBody{Error: fmt.Sprintf("encode response: %v", err)}) // a lone string always encodes
	writeEncoded(w, http.StatusInternalServerError, buf)
}

// writeEncoded sends a JSON body already encoded in parts. Its length is
// known before the first byte, so it goes out with a Content-Length, not
// chunked.
func writeEncoded(w http.ResponseWriter, status int, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return // client gone; nothing to do
		}
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// httpError carries a status code through request helpers.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the load-balancer signal: 200 while serving, 503 while
// draining. Liveness (/healthz) stays 200 throughout a drain.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// buildInfo reports the binary's provenance and runtime state — enough to
// answer "what exactly is running here, and for how long" from /v1/stats.
func (s *Server) buildInfo() BuildInfo {
	b := BuildInfo{
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Goroutines:    runtime.NumGoroutine(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		b.Version = bi.Main.Version
		b.Path = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				b.Revision = kv.Value
			}
		}
	}
	return b
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body := StatsBody{
		Cache:        s.cache.Stats(),
		Admission:    s.gate.Stats(),
		BackendCalls: s.backendCalls.Load(),
		Canceled:     s.canceled.Load(),
		ExecTimeouts: s.execTimeouts.Load(),
		Panics:       s.panics.Load(),
		Build:        s.buildInfo(),
		Metrics:      obs.SnapshotAll(s.reg, obs.Default()),
	}
	sess := s.sessions.Stats()
	body.Sessions = &sess
	s.mu.RLock()
	for _, name := range s.order {
		d := s.datasets[name]
		if fails := d.src.IndexFailures(); len(fails) > 0 {
			if body.IndexFailures == nil {
				body.IndexFailures = map[string][]fastquery.IndexFailure{}
			}
			body.IndexFailures[name] = fails
		}
		if d.live != nil {
			if body.Ingest == nil {
				body.Ingest = map[string]IngestStats{}
			}
			body.Ingest[name] = d.live.stats(d.snap.Load().man)
		}
	}
	s.mu.RUnlock()
	if c := s.shardClient(); c != nil {
		sh := &ShardingStats{
			Shards:      c.Shards(),
			Scatters:    s.scatters.Load(),
			Fragments:   s.scatterFrags.Load(),
			Partials:    s.partials.Load(),
			ShardStatus: c.Stats(r.Context(), 2*time.Second),
		}
		for _, st := range sh.ShardStatus {
			if sh.FleetSteps == 0 && st.Err == "" {
				sh.FleetSteps = st.Stats.Steps
			}
		}
		body.Sharding = sh
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(s.order))
	for _, name := range s.order {
		sn := s.datasets[name].snap.Load()
		out = append(out, DatasetInfo{Name: name, Steps: sn.steps(), Variables: sn.variables()})
	}
	writeJSON(w, http.StatusOK, out)
}

// dataset resolves a served dataset by name; "" names the only one.
func (s *Server) dataset(name string) (*dataset, *httpError) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		if len(s.order) == 1 {
			return s.datasets[s.order[0]], nil
		}
		return nil, errf(http.StatusBadRequest, "missing dataset parameter (have %v)", s.order)
	}
	d, ok := s.datasets[name]
	if !ok {
		return nil, errf(http.StatusNotFound, "unknown dataset %q (have %v)", name, s.order)
	}
	return d, nil
}

func (s *Server) handleSteps(w http.ResponseWriter, r *http.Request) {
	d, herr := s.dataset(r.FormValue("dataset"))
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	body, err := d.stepsBody(d.snap.Load(), r.FormValue("detail") != "")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// stepsBody is the /v1/steps answer, its step count, generation and every
// step's index state read from sn.
func (d *dataset) stepsBody(sn *snapshot, detail bool) (StepsBody, error) {
	n := sn.steps()
	body := StepsBody{Dataset: d.name, Steps: n, Live: d.live != nil}
	if sn.man != nil {
		body.Generation = sn.man.Generation
	}
	if !detail {
		return body, nil
	}
	for t := 0; t < n; t++ {
		st, err := d.step(sn, t)
		if err != nil {
			return StepsBody{}, fmt.Errorf("step %d: %v", t, err)
		}
		body.Detail = append(body.Detail, StepInfo{Step: t, Indexed: st.HasIndex(), Rows: st.Rows(),
			IndexState: sn.indexState(t, st)})
	}
	return body, nil
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	req, herr := s.stepRequest(r)
	if herr != nil {
		writeError(w, herr.status, "%s", herr.msg)
		return
	}
	names := req.sn.variables()
	sort.Strings(names)
	body := VarsBody{Dataset: req.d.name, Step: req.t, Vars: make([]VarInfo, 0, len(names))}
	for _, name := range names {
		lo, hi, err := req.st.MinMax(r.Context(), name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%s: %v", name, err)
			return
		}
		body.Vars = append(body.Vars, VarInfo{Name: name, Min: lo, Max: hi})
	}
	writeJSON(w, http.StatusOK, body)
}

// request bundles the parameters shared by the query/histogram endpoints.
type request struct {
	d       *dataset
	sn      *snapshot // the state every part of the request reads
	st      *fastquery.Step
	t       int
	expr    query.Expr // nil when no condition was given
	src     string     // query text as received
	plan    string     // canonical rendering, "" when expr == nil
	backend fastquery.Backend
}

// stepRequest resolves the dataset and the step parameter (default: the
// last timestep) through one load of the dataset's snapshot.
func (s *Server) stepRequest(r *http.Request) (*request, *httpError) {
	d, herr := s.dataset(r.FormValue("dataset"))
	if herr != nil {
		return nil, herr
	}
	sn := d.snap.Load()
	t := sn.steps() - 1
	if raw := r.FormValue("step"); raw != "" {
		var err error
		if t, err = strconv.Atoi(raw); err != nil {
			return nil, errf(http.StatusBadRequest, "bad step %q", raw)
		}
		if t < 0 || t >= sn.steps() {
			return nil, errf(http.StatusNotFound, "step %d out of range [0,%d)", t, sn.steps())
		}
	}
	st, err := d.step(sn, t)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "%v", err)
	}
	return &request{d: d, sn: sn, st: st, t: t}, nil
}

// parseRequest resolves dataset, step, condition and backend, validating
// every referenced variable so unknown names are a 404, not a backend
// error.
func (s *Server) parseRequest(r *http.Request, requireQuery bool) (*request, *httpError) {
	req, herr := s.stepRequest(r)
	if herr != nil {
		return nil, herr
	}
	if req.src = r.FormValue("q"); req.src == "" && requireQuery {
		return nil, errf(http.StatusBadRequest, "missing q parameter")
	}
	if req.src != "" {
		_, sp := obs.StartSpan(r.Context(), "plan-canonicalize")
		expr, err := query.Parse(req.src)
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		req.expr = query.Canonical(expr)
		req.plan = req.expr.String()
		sp.SetAttr("plan", req.plan)
		sp.End()
		if herr := checkVars(req.sn, query.Vars(req.expr)...); herr != nil {
			return nil, herr
		}
	}
	switch b := r.FormValue("backend"); b {
	case "", "fastbit", "fb":
		if req.st.HasIndex() {
			req.backend = fastquery.FastBit
		} else if b == "" {
			req.backend = fastquery.Scan
		} else if ierr := req.st.IndexError(); ierr != nil {
			// The index exists but was rejected (truncated/corrupt): say
			// why, so the client knows this is degradation, not absence.
			return nil, errf(http.StatusServiceUnavailable,
				"step %d index unavailable (%v); use backend=scan", req.t, ierr)
		} else {
			return nil, errf(http.StatusBadRequest,
				"step %d has no index; use backend=scan", req.t)
		}
	case "scan", "custom":
		req.backend = fastquery.Scan
	default:
		return nil, errf(http.StatusBadRequest, "unknown backend %q (fastbit | scan)", b)
	}
	return req, nil
}

// checkVars verifies each name is a declared dataset variable.
func checkVars(sn *snapshot, names ...string) *httpError {
	have := sn.variables()
	set := map[string]bool{}
	for _, v := range have {
		set[v] = true
	}
	for _, name := range names {
		if name == "" {
			return errf(http.StatusBadRequest, "missing variable parameter")
		}
		if !set[name] {
			sort.Strings(have)
			return errf(http.StatusNotFound, "unknown variable %q (have %v)", name, have)
		}
	}
	return nil
}

// cacheKey builds the deterministic result-cache key: dataset, step, the
// step's catalog generation, backend, canonical plan, and the
// operation-specific spec. The generation makes live-ingest invalidation
// precise: an index publish bumps only that step's generation, so exactly
// its entries stop matching while every other step's stay hot.
func (req *request) cacheKey(spec string) string {
	return strings.Join([]string{
		req.d.name, strconv.Itoa(req.t), strconv.FormatUint(req.sn.gen(req.t), 10),
		req.backend.String(), req.plan, spec,
	}, "\x1f")
}

func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// binningParam parses the binning parameter (uniform default).
func binningParam(r *http.Request) (histogram.Binning, *httpError) {
	switch b := r.FormValue("binning"); b {
	case "", "uniform":
		return histogram.Uniform, nil
	case "adaptive":
		return histogram.Adaptive, nil
	default:
		return 0, errf(http.StatusBadRequest, "unknown binning %q (uniform | adaptive)", b)
	}
}

// intParam parses an integer parameter with a default and bounds.
func intParam(r *http.Request, name string, def, min, max int) (int, *httpError) {
	raw := r.FormValue(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, errf(http.StatusBadRequest, "bad %s %q", name, raw)
	}
	if v < min || v > max {
		return 0, errf(http.StatusBadRequest, "%s %d out of range [%d,%d]", name, v, min, max)
	}
	return v, nil
}

// floatParam parses a finite float parameter; NaN when absent.
func floatParam(r *http.Request, name string) (float64, *httpError) {
	raw := r.FormValue(name)
	if raw == "" {
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, errf(http.StatusBadRequest, "bad %s %q", name, raw)
	}
	return v, nil
}

// rangeParams parses a histogram's fixed value range, the lo and hi
// parameters as a pair: both absent (NaN, NaN: derive it from the data),
// or both finite with lo ≤ hi and a span float64 can hold. lo == hi is
// allowed and widened by histogram.UniformEdges.
func rangeParams(r *http.Request, lo, hi string) (float64, float64, *httpError) {
	l, herr := floatParam(r, lo)
	if herr != nil {
		return 0, 0, herr
	}
	h, herr := floatParam(r, hi)
	if herr != nil {
		return 0, 0, herr
	}
	switch {
	case math.IsNaN(l) != math.IsNaN(h):
		return 0, 0, errf(http.StatusBadRequest, "%s and %s must be given together", lo, hi)
	case l > h:
		return 0, 0, errf(http.StatusBadRequest, "%s %g above %s %g", lo, l, hi, h)
	case math.IsInf(h-l, 0):
		return 0, 0, errf(http.StatusBadRequest, "range [%g, %g] wider than float64 can span", l, h)
	}
	return l, h, nil
}

// planQuery builds the planner input for this request. The query text is
// already canonical (parseRequest), so equal requests produce equal
// fragments and fragment keys across the fleet.
func (req *request) planQuery(op plan.Op) plan.Query {
	return plan.Query{
		Op:      op,
		Dataset: req.d.name,
		Step:    req.t,
		Query:   req.plan,
		Backend: req.backend,
	}
}

// localRunner evaluates plan fragments in-process against the step
// handles the request resolved through its snapshot: the one-shard
// degenerate case of the scatter path. Single-process serving runs the
// same planner/executor code as a frontend, just with this runner instead
// of RPCs.
type localRunner struct {
	s     *Server
	steps map[int]*fastquery.Step // every step the request's plans name
}

func (lr localRunner) RunFragment(ctx context.Context, shardIdx int, f plan.Fragment) (*plan.FragmentResult, error) {
	lr.s.backendCalls.Inc()
	var res *plan.FragmentResult
	err := evalProfiled(ctx, plan.NewFragProfile(shardIdx, f), func(ctx context.Context) (err error) {
		res, err = shard.Eval(ctx, lr.steps[f.Step], f)
		return err
	})
	return res, err
}

// planTarget returns where plans run: the shard fleet when a scatter
// client is configured (merging partials, degrading to a Partial answer
// when a shard is unreachable), in-process over steps as the one-shard
// case otherwise.
func (s *Server) planTarget(steps map[int]*fastquery.Step) (plan.ShardMap, plan.Runner, plan.PartialPolicy) {
	if c := s.shardClient(); c != nil {
		return plan.ShardMap{Shards: c.Shards()}, c, plan.ReturnPartial
	}
	return plan.ShardMap{Shards: 1}, localRunner{s: s, steps: steps}, plan.FailFast
}

// noteScatter counts one plan executed through the scatter client.
func (s *Server) noteScatter(res *plan.Result) {
	if s.shardClient() == nil {
		return
	}
	s.scatters.Inc()
	if res != nil {
		s.scatterFrags.Add(uint64(res.Fragments))
		if res.Partial {
			s.partials.Inc()
		}
	}
}

// execPlan runs one planned operation over the request's step on the plan
// target.
func (s *Server) execPlan(ctx context.Context, req *request, pq plan.Query) (*plan.Result, error) {
	m, r, policy := s.planTarget(map[int]*fastquery.Step{req.t: req.st})
	res, err := plan.ExecuteCells(ctx, pq, m, req.st.Rows(), r, policy)
	s.noteScatter(res)
	return res, err
}

// execPlans runs a multi-step operation — a sweep, a track, a temporal
// view — as one batch on the plan target, steps overlapping up to the
// planner's in-flight cap, each step's handle resolved through sn.
// Beside the per-query results (aligned with pqs) it returns their
// plan.Summary, which marks the response and feeds its explain and
// slow-log note exactly like a single plan's Result does.
func (s *Server) execPlans(ctx context.Context, d *dataset, sn *snapshot, pqs []plan.Query) ([]*plan.Result, *plan.Result, error) {
	rows := make([]uint64, len(pqs))
	steps := make(map[int]*fastquery.Step, len(pqs))
	for i, pq := range pqs {
		st, err := d.step(sn, pq.Step)
		if err != nil {
			return nil, nil, err
		}
		steps[pq.Step], rows[i] = st, st.Rows()
	}
	m, r, policy := s.planTarget(steps)
	results, err := plan.ExecuteAll(ctx, pqs, m, rows, r, policy)
	if err != nil {
		return nil, nil, err
	}
	for _, res := range results {
		s.noteScatter(res)
	}
	return results, plan.Summary(results), nil
}

// partialSteps lists the steps whose plan merged without every shard.
func partialSteps(pqs []plan.Query, results []*plan.Result) []int {
	var out []int
	for i, res := range results {
		if res.Partial {
			out = append(out, pqs[i].Step)
		}
	}
	return out
}

// queryOp is /v1/query: the match count of a compound range query.
func (s *Server) queryOp(r *http.Request) (*op, *httpError) {
	req, herr := s.parseRequest(r, true)
	if herr != nil {
		return nil, herr
	}
	rows := req.st.Rows()
	return &op{
		class: ClassDrill,
		key:   req.cacheKey("count"),
		exec: func(ctx context.Context) (*plan.Result, error) {
			return s.execPlan(ctx, req, req.planQuery(plan.OpCount))
		},
		body: func(res *plan.Result, m ResponseMeta) any {
			sel := 0.0
			if rows > 0 {
				sel = float64(res.Count) / float64(rows)
			}
			return QueryBody{
				Dataset:      req.d.name,
				Step:         req.t,
				Query:        req.src,
				Plan:         req.plan,
				Backend:      req.backend.String(),
				Rows:         rows,
				Matches:      res.Count,
				Selectivity:  sel,
				ResponseMeta: m,
			}
		},
	}, nil
}

// degradable reports whether a histogram request may offer the pipeline a
// brownout ladder: the client did not insist on exactness, and the binning
// is uniform — adaptive edges move with the data, so a coarser cached entry
// is then not a resolution ladder of the same histogram.
func degradable(r *http.Request, binning histogram.Binning) bool {
	return r.FormValue("exact") != "1" && binning == histogram.Uniform
}

// indexOnly builds an op's index-only brownout rung from eval, which fills
// the approximate histogram into the Result it is handed. The rung needs
// the index, so scan-backend requests get none.
func (s *Server) indexOnly(req *request, eval func(ctx context.Context, res *plan.Result) error) func(context.Context) (*plan.Result, error) {
	if req.backend != fastquery.FastBit {
		return nil
	}
	return func(ctx context.Context) (*plan.Result, error) {
		s.backendCalls.Inc()
		res := &plan.Result{Mode: "local", Fragments: 1}
		return res, evalProfiled(ctx, plan.FragProfile{Step: req.t, Op: degradedIndexOnly},
			func(ctx context.Context) error { return eval(ctx, res) })
	}
}

// hist1DOp is /v1/hist1d: one conditional 1D histogram.
func (s *Server) hist1DOp(r *http.Request) (*op, *httpError) {
	req, herr := s.parseRequest(r, false)
	if herr != nil {
		return nil, herr
	}
	spec, herr := hist1DSpec(r, req.sn)
	if herr != nil {
		return nil, herr
	}
	o := &op{
		class: ClassDrill,
		key:   req.cacheKey(hist1DSpecKey(spec)),
		exec: func(ctx context.Context) (*plan.Result, error) {
			pq := req.planQuery(plan.OpHist1D)
			pq.Spec1 = spec
			return s.execPlan(ctx, req, pq)
		},
		answer: func(res *plan.Result) ([]byte, error) {
			h := res.Hist1
			b := Hist1DBody{
				Dataset: req.d.name,
				Step:    req.t,
				Plan:    req.plan,
				Backend: req.backend.String(),
				Var:     spec.Var,
				Binning: spec.Binning.String(),
				Edges:   h.Edges,
				Total:   h.Total(),
				hist:    h,
			}
			return b.answerJSON()
		},
		body: storedAnswer,
	}
	if degradable(r, spec.Binning) {
		o.coarser = func(yield func(key string) bool) {
			coarse := spec
			for coarse.Bins /= 2; coarse.Bins >= brownoutMinBins; coarse.Bins /= 2 {
				if !yield(req.cacheKey(hist1DSpecKey(coarse))) {
					return
				}
			}
		}
		o.approxKey = req.cacheKey("hist1d-approx|" + spec.Var)
		o.indexOnly = s.indexOnly(req, func(ctx context.Context, res *plan.Result) error {
			h, err := req.st.Histogram1DIndexOnlyCtx(ctx, req.expr, spec.Var)
			if err == nil {
				res.Hist1 = h.Cells()
			}
			return err
		})
	}
	return o, nil
}

// hist1DSpec parses the 1D histogram parameters.
func hist1DSpec(r *http.Request, sn *snapshot) (histogram.Spec1D, *httpError) {
	var zero histogram.Spec1D
	v := r.FormValue("var")
	if herr := checkVars(sn, v); herr != nil {
		return zero, herr
	}
	bins, herr := intParam(r, "bins", 64, 1, histogram.MaxBins1D)
	if herr != nil {
		return zero, herr
	}
	spec := histogram.NewSpec1D(v, bins)
	if spec.Binning, herr = binningParam(r); herr != nil {
		return zero, herr
	}
	if spec.Lo, spec.Hi, herr = rangeParams(r, "lo", "hi"); herr != nil {
		return zero, herr
	}
	if spec.MinDensity, herr = floatParam(r, "mindensity"); herr != nil {
		return zero, herr
	}
	if math.IsNaN(spec.MinDensity) {
		spec.MinDensity = 0
	}
	return spec, nil
}

// hist1DSpecKey renders the operation-specific part of a 1D histogram's
// cache key; the brownout ladder reuses it to probe coarser resolutions.
func hist1DSpecKey(spec histogram.Spec1D) string {
	return strings.Join([]string{
		"hist1d", spec.Var, strconv.Itoa(spec.Bins), spec.Binning.String(),
		fmtG(spec.Lo), fmtG(spec.Hi), fmtG(spec.MinDensity),
	}, "|")
}

// hist2DSpec parses the 2D histogram parameters.
func hist2DSpec(r *http.Request, sn *snapshot) (histogram.Spec2D, *httpError) {
	var zero histogram.Spec2D
	xv, yv := r.FormValue("x"), r.FormValue("y")
	if herr := checkVars(sn, xv, yv); herr != nil {
		return zero, herr
	}
	spec := histogram.NewSpec2D(xv, yv, 0, 0)
	var herr *httpError
	if spec.XBins, herr = intParam(r, "xbins", 64, 1, histogram.MaxBins2D); herr != nil {
		return zero, herr
	}
	if spec.YBins, herr = intParam(r, "ybins", 64, 1, histogram.MaxBins2D); herr != nil {
		return zero, herr
	}
	if spec.Binning, herr = binningParam(r); herr != nil {
		return zero, herr
	}
	if spec.XLo, spec.XHi, herr = rangeParams(r, "xlo", "xhi"); herr != nil {
		return zero, herr
	}
	if spec.YLo, spec.YHi, herr = rangeParams(r, "ylo", "yhi"); herr != nil {
		return zero, herr
	}
	if spec.MinDensity, herr = floatParam(r, "mindensity"); herr != nil {
		return zero, herr
	}
	if math.IsNaN(spec.MinDensity) {
		spec.MinDensity = 0
	}
	return spec, nil
}

// hist2DSpecKey renders the operation-specific part of a 2D histogram's
// cache key; the brownout ladder reuses it to probe coarser resolutions.
func hist2DSpecKey(spec histogram.Spec2D) string {
	return strings.Join([]string{
		"hist2d", spec.XVar, spec.YVar,
		strconv.Itoa(spec.XBins), strconv.Itoa(spec.YBins), spec.Binning.String(),
		fmtG(spec.XLo), fmtG(spec.XHi), fmtG(spec.YLo), fmtG(spec.YHi),
		fmtG(spec.MinDensity),
	}, "|")
}

// hist2DOp is /v1/hist2d: one conditional 2D histogram. Its brownout
// ladder halves both axes in lockstep before falling back to the bitmap
// AND-count grid at the two indexes' native resolutions.
func (s *Server) hist2DOp(r *http.Request) (*op, *httpError) {
	req, herr := s.parseRequest(r, false)
	if herr != nil {
		return nil, herr
	}
	spec, herr := hist2DSpec(r, req.sn)
	if herr != nil {
		return nil, herr
	}
	o := &op{
		class: ClassDrill,
		key:   req.cacheKey(hist2DSpecKey(spec)),
		exec: func(ctx context.Context) (*plan.Result, error) {
			pq := req.planQuery(plan.OpHist2D)
			pq.Spec2 = spec
			return s.execPlan(ctx, req, pq)
		},
		answer: func(res *plan.Result) ([]byte, error) {
			h := res.Hist2
			b := Hist2DBody{
				Dataset: req.d.name,
				Step:    req.t,
				Plan:    req.plan,
				Backend: req.backend.String(),
				XVar:    spec.XVar,
				YVar:    spec.YVar,
				Binning: spec.Binning.String(),
				XEdges:  h.XEdges,
				YEdges:  h.YEdges,
				Total:   h.Total(),
				hist:    h,
			}
			return b.answerJSON()
		},
		body: storedAnswer,
	}
	if degradable(r, spec.Binning) {
		o.coarser = func(yield func(key string) bool) {
			coarse := spec
			for {
				coarse.XBins, coarse.YBins = coarse.XBins/2, coarse.YBins/2
				if coarse.XBins < brownoutMinBins || coarse.YBins < brownoutMinBins ||
					!yield(req.cacheKey(hist2DSpecKey(coarse))) {
					return
				}
			}
		}
		o.approxKey = req.cacheKey("hist2d-approx|" + spec.XVar + "|" + spec.YVar)
		o.indexOnly = s.indexOnly(req, func(ctx context.Context, res *plan.Result) error {
			h, err := req.st.Histogram2DIndexOnlyCtx(ctx, req.expr, spec.XVar, spec.YVar)
			if err == nil {
				res.Hist2 = h.Cells()
			}
			return err
		})
	}
	return o, nil
}

// stepsParam parses the steps parameter for sweeps: "" (all steps),
// "a-b" (inclusive range), or a comma-separated list. A step may be named
// once: every listed step is one concurrent plan, so repeats would let a
// single request fan out without bound; rejecting them caps any sweep or
// track at the dataset's step count.
func stepsParam(r *http.Request, sn *snapshot) ([]int, *httpError) {
	n := sn.steps()
	raw := r.FormValue("steps")
	if raw == "" {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	check := func(t int) *httpError {
		if t < 0 || t >= n {
			return errf(http.StatusNotFound, "step %d out of range [0,%d)", t, n)
		}
		return nil
	}
	if lo, hi, ok := strings.Cut(raw, "-"); ok {
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || a > b {
			return nil, errf(http.StatusBadRequest, "bad steps range %q", raw)
		}
		if herr := check(a); herr != nil {
			return nil, herr
		}
		if herr := check(b); herr != nil {
			return nil, herr
		}
		out := make([]int, 0, b-a+1)
		for t := a; t <= b; t++ {
			out = append(out, t)
		}
		return out, nil
	}
	var out []int
	seen := make(map[int]bool)
	for _, f := range strings.Split(raw, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, errf(http.StatusBadRequest, "bad steps %q", raw)
		}
		if herr := check(t); herr != nil {
			return nil, herr
		}
		if seen[t] {
			return nil, errf(http.StatusBadRequest, "step %d listed twice in steps", t)
		}
		seen[t] = true
		out = append(out, t)
	}
	return out, nil
}

// sweep2DOp is /v1/sweep2d: one conditional 2D histogram per timestep — the
// paper's temporal-evolution view. The steps run as one batch through the
// planner: in-process here, scattered step × row-range across the shard
// fleet on a frontend, steps overlapping either way.
func (s *Server) sweep2DOp(r *http.Request) (*op, *httpError) {
	req, herr := s.parseRequest(r, false)
	if herr != nil {
		return nil, herr
	}
	spec, herr := hist2DSpec(r, req.sn)
	if herr != nil {
		return nil, herr
	}
	steps, herr := stepsParam(r, req.sn)
	if herr != nil {
		return nil, herr
	}
	pqs := make([]plan.Query, len(steps))
	for i, t := range steps {
		pqs[i] = req.planQuery(plan.OpHist2D)
		pqs[i].Step = t
		pqs[i].Spec2 = spec
	}
	var results []*plan.Result
	return &op{
		class: ClassSweep,
		exec: func(ctx context.Context) (sum *plan.Result, err error) {
			results, sum, err = s.execPlans(ctx, req.d, req.sn, pqs)
			return sum, err
		},
		body: func(_ *plan.Result, m ResponseMeta) any {
			m.FailedSteps = partialSteps(pqs, results)
			body := Sweep2DBody{
				Dataset:      req.d.name,
				Steps:        steps,
				Plan:         req.plan,
				Backend:      req.backend.String(),
				Mode:         "local",
				XVar:         spec.XVar,
				YVar:         spec.YVar,
				Totals:       make([]uint64, len(results)),
				ResponseMeta: m,
			}
			if s.shardClient() != nil {
				body.Mode = "scatter"
			}
			for i, res := range results {
				body.Totals[i] = res.Hist2.Total()
				body.Total += body.Totals[i]
			}
			return body
		},
	}, nil
}
