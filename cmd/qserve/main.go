// Command qserve is the interactive query service: it serves one or more
// datasets over an HTTP/JSON API — compound range queries and conditional
// histograms at arbitrary resolution — with a canonical-plan result cache,
// request coalescing and admission control.
//
// Usage:
//
//	lwfagen -out /tmp/lwfa -steps 30 -particles 200000
//	qserve -data /tmp/lwfa -addr :8080
//	qserve -data beam=/tmp/lwfa -data run2=/data/run2
//	qserve -data /tmp/lwfa -admin-addr :9090
//	qserve -data /tmp/lwfa -live -ingest-workers 2
//
// Endpoints:
//
//	GET /v1/datasets                          served datasets
//	GET /v1/steps?dataset=D&detail=1          timestep metadata
//	GET /v1/vars?dataset=D&step=T             variables with value ranges
//	GET /v1/query?q=...&step=T&backend=B      selection summary
//	GET /v1/hist1d?var=V&bins=N&q=...         conditional 1D histogram
//	GET /v1/hist2d?x=X&y=Y&xbins=N&ybins=M    conditional 2D histogram
//	GET /v1/sweep2d?x=X&y=Y&steps=A-B&q=...   per-step histogram sweep
//	POST /v1/ingest                           append one timestep (-live only)
//	GET /v1/stats                             counters, build info, metrics
//	GET /metrics                              Prometheus text exposition
//	GET /v1/debug/slow                        recent over-threshold requests
//	GET /healthz                              liveness (always 200 while up)
//	GET /readyz                               readiness (503 once draining)
//
// Every request carries an X-Trace-Id header; add ?debug=trace to have
// the per-stage span tree echoed in the response body, or ?debug=explain
// for a per-fragment execution profile (rows, bytes, index work, cache
// disposition, budgets) whose fragment costs sum exactly to the query
// totals. ?explain=only returns the profile instead of the answer.
//
// With -admin-addr a second listener serves the operational surface only:
// /metrics, /v1/debug/slow, and net/http/pprof under /debug/pprof/ —
// keeping profilers and scrapers off the query port. On a scatter
// frontend /metrics federates every shard worker's registry into one
// exposition (worker series labelled shard="N"); ?exemplars=1 attaches
// trace-ID exemplars to latency buckets.
//
// The server grades every request against -slo and exports the SLO
// burn rate over two windows (-burn-fast / -burn-slow); when both
// cross -burn-threshold, a breach fires and — with -profile-dir set —
// the flight recorder spools CPU/heap profiles plus the slow-query
// ring into a bounded capture directory for post-hoc analysis.
//
// On SIGTERM/SIGINT the server flips /readyz to 503, drains in-flight
// requests (deadline covering -exec-timeout), and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fastbit"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// dataFlags collects repeated -data name=dir (or plain dir) flags.
type dataFlags []string

func (d *dataFlags) String() string { return strings.Join(*d, ",") }

func (d *dataFlags) Set(v string) error {
	*d = append(*d, v)
	return nil
}

// splitDataSpec resolves one -data value into (name, dir).
func splitDataSpec(spec string) (name, dir string) {
	if i := strings.IndexByte(spec, '='); i >= 0 {
		return spec[:i], spec[i+1:]
	}
	return filepath.Base(filepath.Clean(spec)), spec
}

func main() {
	logger := obs.NewLogger(os.Stderr, "qserve")
	fatal := func(msg string, kv ...any) {
		logger.Error(msg, kv...)
		os.Exit(1)
	}

	var datas dataFlags
	flag.Var(&datas, "data", "dataset to serve, as dir or name=dir (repeatable)")
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:0 picks a free port)")
		adminAddr    = flag.String("admin-addr", "", "admin listener for /metrics, pprof and /v1/debug/slow (off when empty)")
		cacheEntries = flag.Int("cache-entries", 256, "result cache size in entries (0 disables storage)")
		concurrency  = flag.Int("concurrency", 8, "max requests doing backend work at once")
		queueDepth   = flag.Int("queue", -1, "admission queue depth (-1 = 2x concurrency, 0 = no queue)")
		queueWait    = flag.Duration("queue-timeout", 2*time.Second, "max time a request waits for admission")
		execTimeout  = flag.Duration("exec-timeout", 30*time.Second, "per-request execution deadline, answered 504 (0 = no deadline)")
		slowThresh   = flag.Duration("slow-threshold", 250*time.Millisecond, "latency beyond which a request enters the slow-query log (0 = off)")
		limitMode    = flag.String("limit-mode", "aimd", "admission limiter: fixed | aimd")
		slo          = flag.Duration("slo", 250*time.Millisecond, "latency SLO the adaptive limiter steers p95 toward")
		maxConc      = flag.Int("max-concurrency", 0, "cap on adaptive limit growth (0 = 8x concurrency)")
		brownout     = flag.Bool("brownout", true, "answer eligible histograms from a degraded path under sustained overload")
		obsEnabled   = flag.Bool("obs", true, "enable tracing and latency histograms (counters stay on)")
		live         = flag.Bool("live", false, "serve datasets live: accept POST /v1/ingest and build indexes in the background")
		ingWorkers   = flag.Int("ingest-workers", 1, "background index-builder pool size per live dataset")
		catalogPoll  = flag.Duration("catalog-poll", 500*time.Millisecond, "how often a live dataset re-reads its catalog for external commits (0 disables)")
		indexBins    = flag.Int("index-bins", 256, "bitmap index bins per variable for live-built indexes")

		// Sharded serving roles. A shard worker evaluates plan fragments
		// over RPC; a frontend scatters fragments across shard replica
		// groups and merges the partials; local (default) is the one-shard
		// case of the same planner path, in-process.
		role      = flag.String("role", "local", "serving role: local | frontend | shard")
		rpcAddr   = flag.String("rpc-addr", "127.0.0.1:7071", "shard role: fragment RPC listen address (host:0 picks a free port)")
		shards    = flag.String("shards", "", "frontend role: comma-separated shard worker addresses; consecutive -replicas addresses form one shard's replica group")
		replicas  = flag.Int("replicas", 1, "frontend role: replica addresses per shard in -shards")
		hedge     = flag.Duration("hedge", 0, "frontend role: hedged-dispatch stagger across a shard's replicas (0 = first-healthy only)")
		fragCache = flag.Int("frag-cache", 1024, "shard role: fragment result cache entries (0 disables)")

		// SLO burn-rate monitoring and breach-triggered profile capture.
		burnBudget    = flag.Float64("burn-budget", 0.05, "tolerated bad-request fraction (error budget) for the SLO burn monitor")
		burnFast      = flag.Duration("burn-fast", 5*time.Minute, "fast burn-rate window")
		burnSlow      = flag.Duration("burn-slow", time.Hour, "slow burn-rate window")
		burnThreshold = flag.Float64("burn-threshold", 1, "burn rate both windows must reach to fire a breach")
		burnCooldown  = flag.Duration("burn-cooldown", 0, "minimum gap between breach firings (0 = slow window)")
		profileDir    = flag.String("profile-dir", "", "flight-recorder spool: each SLO breach captures pprof profiles + the slow-query ring here (off when empty)")
		profileCaps   = flag.Int("profile-captures", 8, "flight-recorder spool bound (capture directories kept)")
		profileCPU    = flag.Duration("profile-cpu", 2*time.Second, "CPU-profile sampling window per flight-recorder capture")

		// Analysis sessions (server-side selections).
		sessionTTL      = flag.Duration("session-ttl", 15*time.Minute, "evict analysis sessions idle longer than this (0 = never)")
		sessionMax      = flag.Int("session-max", 64, "max live analysis sessions, LRU-evicted (0 = unbounded)")
		sessionMaxBytes = flag.Int64("session-max-bytes", 64<<20, "max bytes of stored selections across sessions (0 = unbounded)")

		// Resilience control plane (frontend role).
		breaker     = flag.Bool("breaker", true, "frontend role: per-replica circuit breakers on shard RPCs")
		retryBudget = flag.Float64("retry-budget", 0.1, "frontend role: global retry budget refill ratio — retry tokens granted per successful call (0 disables)")
		retryBurst  = flag.Int("retry-budget-burst", 20, "frontend role: retry budget bucket size")
		budgetSlack = flag.Duration("budget-slack", shard.DefaultBudgetSlack, "frontend role: deadline headroom reserved per fragment dispatch (negative disables deadline budgets)")
	)
	flag.Parse()
	if len(datas) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	obs.SetEnabled(*obsEnabled)
	if _, err := serve.ParseLimitMode(*limitMode); err != nil {
		fatal("bad -limit-mode", "mode", *limitMode, "err", err)
	}
	switch *role {
	case "local", "frontend", "shard":
	default:
		fatal("bad -role", "role", *role, "want", "local | frontend | shard")
	}
	// Live ingestion mutates the catalog in one process; shard workers and
	// frontends share a static dataset directory (the parallel-filesystem
	// model), so the roles are mutually exclusive for now.
	if *role != "local" && *live {
		fatal("-live requires -role local", "role", *role)
	}
	if *role != "frontend" && *shards != "" {
		fatal("-shards requires -role frontend", "role", *role)
	}
	if *role == "shard" {
		runShard(logger, fatal, datas, shardOptions{
			rpcAddr:      *rpcAddr,
			adminAddr:    *adminAddr,
			fragCache:    *fragCache,
			concurrency:  *concurrency,
			queueDepth:   *queueDepth,
			queueTimeout: *queueWait,
			limitMode:    *limitMode,
			slo:          *slo,
			maxConc:      *maxConc,
		})
		return
	}

	cfg := serve.Config{
		CacheEntries:   *cacheEntries,
		Concurrency:    *concurrency,
		QueueTimeout:   *queueWait,
		ExecTimeout:    *execTimeout,
		SlowThreshold:  *slowThresh,
		Logger:         logger.With("serve"),
		LimitMode:      *limitMode,
		SLO:            *slo,
		MaxConcurrency: *maxConc,
		Brownout:       *brownout,

		BurnBudget:      *burnBudget,
		BurnFast:        *burnFast,
		BurnSlow:        *burnSlow,
		BurnThreshold:   *burnThreshold,
		BurnCooldown:    *burnCooldown,
		ProfileDir:      *profileDir,
		ProfileCaptures: *profileCaps,
		ProfileCPU:      *profileCPU,

		SessionTTL:      *sessionTTL,
		SessionMax:      *sessionMax,
		SessionMaxBytes: *sessionMaxBytes,
	}
	// Flag semantics: 0 disables a session bound; Config expresses that as
	// a negative value (its zero means "use the default").
	if *sessionTTL <= 0 {
		cfg.SessionTTL = -1
	}
	if *sessionMax <= 0 {
		cfg.SessionMax = -1
	}
	if *sessionMaxBytes <= 0 {
		cfg.SessionMaxBytes = -1
	}
	// Flag semantics: 0 disables the deadline; Config expresses that as a
	// negative value (its own zero means "use the default").
	if *execTimeout <= 0 {
		cfg.ExecTimeout = -1
	}
	if *slowThresh <= 0 {
		cfg.SlowThreshold = -1
	}
	// Flag semantics differ from Config zero-value semantics: translate
	// "0 = off" into Config's "negative = off".
	if *cacheEntries <= 0 {
		cfg.CacheEntries = -1
	}
	switch {
	case *queueDepth > 0:
		cfg.QueueDepth = *queueDepth
	case *queueDepth == 0:
		cfg.QueueDepth = -1
	}
	s := serve.New(cfg)
	defer s.Close()
	for _, spec := range datas {
		name, dir := splitDataSpec(spec)
		if *live {
			lc := serve.LiveConfig{
				IngestWorkers: *ingWorkers,
				CatalogPoll:   *catalogPoll,
				Index:         fastbit.IndexOptions{Bins: *indexBins},
			}
			if *catalogPoll <= 0 {
				lc.CatalogPoll = -1
			}
			if err := s.AddLiveDataset(name, dir, lc); err != nil {
				fatal("add live dataset", "name", name, "dir", dir, "err", err)
			}
			logger.Info("serving dataset live", "name", name, "dir", dir)
			continue
		}
		if err := s.AddDataset(name, dir); err != nil {
			fatal("add dataset", "name", name, "dir", dir, "err", err)
		}
		logger.Info("serving dataset", "name", name, "dir", dir)
	}
	if *role == "frontend" {
		if *shards == "" {
			fatal("-role frontend requires -shards")
		}
		groups, err := shardGroups(strings.Split(*shards, ","), *replicas)
		if err != nil {
			fatal("bad -shards", "shards", *shards, "replicas", *replicas, "err", err)
		}
		pc := cluster.DefaultPoolConfig()
		if *breaker {
			pc.Breaker = cluster.DefaultBreakerConfig()
		}
		pc.RetryBudgetRatio = *retryBudget
		pc.RetryBudgetBurst = *retryBurst
		c, err := shard.DialShards(groups, pc, *hedge)
		if err != nil {
			fatal("dial shards", "shards", *shards, "err", err)
		}
		c.SetBudgetSlack(*budgetSlack)
		s.SetShardClient(c)
		logger.Info("shard fleet connected",
			"shards", len(groups), "replicas", *replicas, "hedge", hedge.String(),
			"breakers", *breaker, "retry_budget", *retryBudget, "budget_slack", budgetSlack.String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", "addr", *addr, "err", err)
	}
	// The actual address matters with port 0; print it where scripts and
	// tests can parse it.
	fmt.Printf("qserve: listening on %s\n", ln.Addr())

	// The admin surface gets its own mux (and listener): pprof handlers
	// must never be reachable from the query port, and a scrape storm on
	// /metrics must not compete with queries for the accept queue.
	if *adminAddr != "" {
		adm := http.NewServeMux()
		adm.Handle("/metrics", s.MetricsHandler())
		adm.Handle("/v1/debug/slow", s.SlowLog().Handler())
		adm.HandleFunc("/debug/pprof/", pprof.Index)
		adm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		adm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		adm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		adm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatal("admin listen", "addr", *adminAddr, "err", err)
		}
		fmt.Printf("qserve: admin on %s\n", aln.Addr())
		go func() {
			asrv := &http.Server{Handler: adm, ReadHeaderTimeout: 10 * time.Second}
			if err := asrv.Serve(aln); err != nil && err != http.ErrServerClosed {
				logger.Error("admin server", "err", err)
			}
		}()
	}

	// Slow-client protection: a reader that trickles its request header or
	// never drains its response must not pin a connection (and its handler)
	// forever. WriteTimeout must cover the execution deadline, or the server
	// would cut off legitimately slow histograms before their 504 fires.
	writeTimeout := cfg.ExecTimeout + 30*time.Second
	if cfg.ExecTimeout < 0 {
		writeTimeout = 0 // deadline disabled: don't reintroduce one here
	}
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		fatal("server exited", "err", err)
	case <-sig:
		// Graceful drain: flip /readyz to 503 so load balancers stop
		// routing here, then let in-flight requests finish. The drain
		// deadline must exceed the execution deadline so no request is
		// killed by shutdown that would have completed within its budget.
		logger.Info("draining")
		s.SetDraining(true)
		drain := 10 * time.Second
		if cfg.ExecTimeout > 0 && cfg.ExecTimeout+5*time.Second > drain {
			drain = cfg.ExecTimeout + 5*time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		logger.Info("drained, exiting")
	}
}
