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
// burn rate over two windows (-burn-fast / -burn-slow); when both reach
// 1, a breach fires and — with -profile-dir set — the flight recorder
// spools CPU/heap profiles plus the slow-query ring into a bounded
// capture directory for post-hoc analysis.
//
// On SIGTERM/SIGINT the server flips /readyz to 503, drains in-flight
// requests (deadline covering the 30s execution deadline), and exits 0.
//
// The flags are the deployment's settings (what to serve, where, in
// which role) plus the few overload and SLO parameters that CI and the
// walkthroughs actually vary; README.md has the one table. Every other
// constant — cache size, queue depth, timeouts, session bounds, retry
// budget — is the default of the component that reads it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
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

// settings is what the command line decides, already in the shape the
// components take. A field no flag sets stays zero, which every component
// reads as "my own default" — a constant without a flag is not spelled here.
type settings struct {
	role      string
	datas     dataFlags
	addr      string
	adminAddr string
	rpcAddr   string

	serve serve.Config      // local, frontend: the server; shard: its GateConfig
	live  *serve.LiveConfig // local role with -live, else nil

	// Frontend role.
	groups [][]string // shard replica groups
	pool   cluster.PoolConfig
	hedge  time.Duration
}

// roleFlags lists, per role, the flags that role reads. A flag given to a
// role that would ignore it is a usage error, not a silent no-op.
var roleFlags = func() map[string][]string {
	common := []string{"data", "role", "admin-addr", "concurrency", "limit-mode", "slo"}
	server := []string{"addr", "brownout", "burn-fast", "burn-slow", "burn-cooldown", "profile-dir", "profile-cpu"}
	return map[string][]string{
		"local":    slices.Concat(common, server, []string{"live", "ingest-workers"}),
		"frontend": slices.Concat(common, server, []string{"shards", "replicas", "hedge"}),
		"shard":    slices.Concat(common, []string{"rpc-addr"}),
	}
}()

// parseFlags resolves a command line into settings. Flag-package errors
// (and -h) have already been reported on stderr when it returns them;
// the caller prints any other error and exits 2.
func parseFlags(args []string, stderr io.Writer) (*settings, error) {
	set := &settings{}
	fs := flag.NewFlagSet("qserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Var(&set.datas, "data", "dataset to serve, as dir or name=dir (repeatable)")
	fs.StringVar(&set.addr, "addr", "127.0.0.1:8080", "listen address (host:0 picks a free port)")
	fs.StringVar(&set.adminAddr, "admin-addr", "", "admin listener for /metrics, pprof and /v1/debug/slow (off when empty)")

	// Serving roles. A shard worker evaluates plan fragments over RPC; a
	// frontend scatters fragments across shard replica groups and merges
	// the partials; local (default) is the one-shard case of the same
	// planner path, in-process.
	fs.StringVar(&set.role, "role", "local", "serving role: local | frontend | shard")
	fs.StringVar(&set.rpcAddr, "rpc-addr", "127.0.0.1:7071", "shard role: fragment RPC listen address (host:0 picks a free port)")
	shards := fs.String("shards", "", "frontend role: comma-separated shard worker addresses; consecutive -replicas addresses form one shard's replica group")
	replicas := fs.Int("replicas", 1, "frontend role: replica addresses per shard in -shards")
	fs.DurationVar(&set.hedge, "hedge", 0, "frontend role: hedged-dispatch stagger across a shard's replicas (0 = first-healthy only)")
	live := fs.Bool("live", false, "local role: accept POST /v1/ingest and build indexes in the background")
	ingWorkers := fs.Int("ingest-workers", 1, "with -live: background index-builder pool size per dataset")

	// Overload control and the SLO it steers toward.
	cfg := &set.serve
	fs.IntVar(&cfg.Concurrency, "concurrency", 8, "requests (shard role: fragments) doing backend work at once; the adaptive limiter starts here")
	fs.StringVar(&cfg.LimitMode, "limit-mode", "aimd", "admission limiter: fixed | aimd")
	fs.DurationVar(&cfg.SLO, "slo", 250*time.Millisecond, "latency SLO: the adaptive limiter steers p95 toward it and the burn monitor grades requests against it")
	fs.BoolVar(&cfg.Brownout, "brownout", true, "answer eligible histograms from a degraded path under sustained overload")
	fs.DurationVar(&cfg.BurnFast, "burn-fast", 5*time.Minute, "fast SLO burn-rate window")
	fs.DurationVar(&cfg.BurnSlow, "burn-slow", time.Hour, "slow SLO burn-rate window")
	fs.DurationVar(&cfg.BurnCooldown, "burn-cooldown", 0, "minimum gap between burn-rate breach firings (0 = slow window)")
	fs.StringVar(&cfg.ProfileDir, "profile-dir", "", "flight-recorder spool: each SLO breach captures pprof profiles + the slow-query ring here (off when empty)")
	fs.DurationVar(&cfg.ProfileCPU, "profile-cpu", 2*time.Second, "CPU-profile sampling window per flight-recorder capture")

	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	allowed, ok := roleFlags[set.role]
	if !ok {
		return nil, fmt.Errorf("bad -role %q: want local | frontend | shard", set.role)
	}
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains(allowed, f.Name) {
			stray = append(stray, "-"+f.Name)
		}
		if f.Name == "ingest-workers" && !*live {
			stray = append(stray, "-ingest-workers (without -live)")
		}
	})
	if len(stray) > 0 {
		return nil, fmt.Errorf("%s: not read by -role %s", strings.Join(stray, ", "), set.role)
	}
	if len(set.datas) == 0 {
		return nil, errors.New("at least one -data is required")
	}
	if _, err := serve.ParseLimitMode(cfg.LimitMode); err != nil {
		return nil, fmt.Errorf("bad -limit-mode: %w", err)
	}
	if *live {
		set.live = &serve.LiveConfig{IngestWorkers: *ingWorkers}
	}
	if set.role == "frontend" {
		if *shards == "" {
			return nil, errors.New("-role frontend requires -shards")
		}
		var err error
		if set.groups, err = shardGroups(strings.Split(*shards, ","), *replicas); err != nil {
			return nil, fmt.Errorf("bad -shards %q with -replicas %d: %w", *shards, *replicas, err)
		}
		// The resilience control plane is always on: per-replica circuit
		// breakers, and a fleet-wide retry budget refilled at one token
		// per ten successful calls.
		set.pool = cluster.DefaultPoolConfig()
		set.pool.Breaker = cluster.DefaultBreakerConfig()
		set.pool.RetryBudgetRatio = 0.1
	}
	return set, nil
}

// HTTP-server bounds. Both must exceed the per-request execution deadline
// (serve.Config.ExecTimeout's default, 30s): a shorter write timeout would
// cut off a legitimately slow histogram before its 504 fires, and a
// shorter drain would kill requests that were going to finish in budget.
const (
	writeTimeout = 60 * time.Second
	drainTimeout = 35 * time.Second
)

func main() {
	logger := obs.NewLogger(os.Stderr, "qserve")
	fatal := func(msg string, kv ...any) {
		logger.Error(msg, kv...)
		os.Exit(1)
	}
	set, err := parseFlags(os.Args[1:], os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case err != nil:
		fmt.Fprintf(os.Stderr, "qserve: %v (see qserve -h)\n", err)
		os.Exit(2)
	}
	if set.role == "shard" {
		runShard(logger, fatal, set)
		return
	}

	set.serve.Logger = logger.With("serve")
	s := serve.New(set.serve)
	defer s.Close()
	for _, spec := range set.datas {
		name, dir := splitDataSpec(spec)
		if set.live != nil {
			err = s.AddLiveDataset(name, dir, *set.live)
		} else {
			err = s.AddDataset(name, dir)
		}
		if err != nil {
			fatal("add dataset", "name", name, "dir", dir, "live", set.live != nil, "err", err)
		}
		logger.Info("serving dataset", "name", name, "dir", dir, "live", set.live != nil)
	}
	if set.role == "frontend" {
		c, err := shard.DialShards(set.groups, set.pool, set.hedge)
		if err != nil {
			fatal("dial shards", "shards", set.groups, "err", err)
		}
		s.SetShardClient(c)
		logger.Info("shard fleet connected",
			"shards", len(set.groups), "replicas", len(set.groups[0]), "hedge", set.hedge.String())
	}

	ln, err := net.Listen("tcp", set.addr)
	if err != nil {
		fatal("listen", "addr", set.addr, "err", err)
	}
	// The actual address matters with port 0; print it where scripts and
	// tests can parse it.
	fmt.Printf("qserve: listening on %s\n", ln.Addr())
	serveAdmin(logger, fatal, set.adminAddr, s.MetricsHandler(), s.SlowLog().Handler())

	// Slow-client protection: a reader that trickles its request header or
	// never drains its response must not pin a connection (and its handler)
	// forever.
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    1 << 20,
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		fatal("server exited", "err", err)
	case <-shutdownSignal():
		// Graceful drain: flip /readyz to 503 so load balancers stop
		// routing here, then let in-flight requests finish.
		logger.Info("draining")
		s.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		logger.Info("drained, exiting")
	}
}

// shutdownSignal delivers the first SIGINT/SIGTERM.
func shutdownSignal() <-chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig
}

// serveAdmin starts the operational listener when addr is set. The admin
// surface gets its own mux and listener: pprof handlers must never be
// reachable from the query port, and a scrape storm on /metrics must not
// compete with queries for the accept queue. slow is nil on a shard
// worker, which keeps no slow-query log.
func serveAdmin(logger *obs.Logger, fatal func(string, ...any), addr string, metrics, slow http.Handler) {
	if addr == "" {
		return
	}
	adm := http.NewServeMux()
	adm.Handle("/metrics", metrics)
	if slow != nil {
		adm.Handle("/v1/debug/slow", slow)
	}
	adm.HandleFunc("/debug/pprof/", pprof.Index)
	adm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	adm.HandleFunc("/debug/pprof/profile", pprof.Profile)
	adm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	adm.HandleFunc("/debug/pprof/trace", pprof.Trace)
	aln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("admin listen", "addr", addr, "err", err)
	}
	fmt.Printf("qserve: admin on %s\n", aln.Addr())
	go func() {
		asrv := &http.Server{Handler: adm, ReadHeaderTimeout: 10 * time.Second}
		if err := asrv.Serve(aln); err != nil && err != http.ErrServerClosed {
			logger.Error("admin server", "err", err)
		}
	}()
}
