// Command qchaos is the chaos harness for the sharded serving tier: it
// stands up a 3-shard fleet plus frontend in one process, wraps every
// shard behind seeded fault injection, and drives query load through a
// schedule of fault shapes — stall-then-answer, network partition,
// corrupted replies, truncated replies, crash-and-restart — asserting the
// resilience invariants the control plane promises:
//
//  1. every response is either byte-identical to a fault-free baseline or
//     explicitly marked partial/degraded — never silently wrong;
//  2. no request outlives its deadline beyond a bounded slack;
//  3. after faults heal, the breakers re-close and the fleet returns to
//     100% exact answers within a bounded recovery window;
//  4. the process leaks no goroutines across the whole schedule.
//
// It also measures the circuit breakers' contribution directly: the same
// dead-shard scenario is driven through a breakers-enabled and a
// breakers-disabled frontend, and the steady-state p99s land side by side
// in the report.
//
// The full run is deterministic for a given -fault-seed; each faultnet
// listener logs its seed and schedule so any run can be replayed. Results
// are written as JSON (-out, default BENCH_chaos.json) and the process
// exits non-zero on any invariant violation, so CI can gate on it.
//
// Usage:
//
//	qchaos                         # synthesizes a small dataset
//	qchaos -data /tmp/lwfa -fault-seed 42 -out BENCH_chaos.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/faultnet"
	"repro/internal/fastbit"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sim"
)

const (
	numShards     = 3
	execTimeout   = 2 * time.Second
	deadlineSlack = 1 * time.Second  // invariant 2: request wall time <= execTimeout + this
	recoveryLimit = 15 * time.Second // invariant 3: heal -> 100% exact within this
	driveConc     = 8
)

// node is one shard worker with a kill/restart cycle: the listener address
// stays stable across restarts so the frontend pool reconnects to the
// "same" shard after a crash.
type node struct {
	idx  int
	addr string
	seed int64
	ex   *shard.Executor
	srv  *cluster.Server
	fl   *faultnet.Listener
}

func (n *node) start() error {
	srv, err := shard.NewServer(shard.NewService(n.ex, nil))
	if err != nil {
		return err
	}
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var l net.Listener
	for attempt := 0; ; attempt++ {
		l, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		// A restart can race the dying listener's port release.
		if attempt >= 50 {
			srv.Close()
			return fmt.Errorf("shard %d: listen %s: %w", n.idx, addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	n.addr = l.Addr().String()
	n.fl = faultnet.Wrap(l, faultnet.Config{Seed: n.seed})
	n.srv = srv
	srv.Serve(n.fl)
	return nil
}

func (n *node) kill() {
	n.fl.Kill()
	n.srv.Close()
}

func (n *node) close() {
	n.kill()
	n.ex.Close()
}

// result is one driven request's outcome.
type result struct {
	path    string
	code    int
	partial bool // X-Partial or X-Degraded: explicitly marked non-exact
	dur     time.Duration
	body    map[string]any
	err     error
}

// phaseReport is one schedule phase's roll-up in BENCH_chaos.json.
type phaseReport struct {
	Name       string  `json:"name"`
	Requests   int     `json:"requests"`
	Exact      int     `json:"exact"`
	Partial    int     `json:"partial"`
	Errors     int     `json:"errors"`
	Violations int     `json:"violations"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	RecoveryMS float64 `json:"recovery_ms"` // heal -> first exact answer with breakers closed
	// CorruptWrites counts the shard replies the fault layer corrupted
	// during the phase; ChecksumRejects those whose result frame the
	// scatter client then refused at decode, on its CRC or its validation
	// (shard_reply_corrupt_total; the rest broke gob's own framing).
	CorruptWrites   int64  `json:"corrupt_writes"`
	ChecksumRejects uint64 `json:"checksum_rejects"`
}

type killShardReport struct {
	BreakersOnP99MS  float64 `json:"breakers_on_p99_ms"`
	BreakersOffP99MS float64 `json:"breakers_off_p99_ms"`
	Requests         int     `json:"requests_per_side"`
}

type report struct {
	Seed            int64           `json:"seed"`
	Shards          int             `json:"shards"`
	Phases          []phaseReport   `json:"phases"`
	KillOneShard    killShardReport `json:"kill_one_shard"`
	Availability    float64         `json:"availability"`     // (exact+partial)/total
	Exactness       float64         `json:"exactness"`        // exact/total
	Violations      int             `json:"violations"`       // invariant breaches, all phases
	GoroutinesStart int             `json:"goroutines_start"` // invariant 4 bookends
	GoroutinesEnd   int             `json:"goroutines_end"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("qchaos: ")

	var (
		dataDir   = flag.String("data", "", "dataset directory (empty: synthesize a small one)")
		faultSeed = flag.Int64("fault-seed", 42, "seed for every fault schedule; logged for replay")
		out       = flag.String("out", "BENCH_chaos.json", "report output path")
		perPhase  = flag.Int("requests", 30, "requests driven per fault phase")
	)
	flag.Parse()
	log.Printf("fault-seed=%d (rerun with -fault-seed %d to replay)", *faultSeed, *faultSeed)

	baseGoroutines := runtime.NumGoroutine()

	dir := *dataDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "qchaos-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		cfg := sim.DefaultConfig()
		cfg.Steps = 3
		cfg.BackgroundPerStep = 4000
		cfg.BeamParticles = 60
		if _, err := sim.WriteDataset(tmp, cfg, sim.WriteOptions{Index: fastbit.IndexOptions{Bins: 64}}); err != nil {
			log.Fatal(err)
		}
		dir = tmp
		log.Printf("synthesized dataset in %s", dir)
	}

	// Shard fleet, every listener behind seeded fault injection.
	nodes := make([]*node, numShards)
	for i := range nodes {
		ex := shard.NewExecutor(shard.FragCacheBytes)
		if err := ex.AddDataset("lwfa", dir); err != nil {
			log.Fatal(err)
		}
		nodes[i] = &node{idx: i, seed: *faultSeed + int64(i), ex: ex}
		if err := nodes[i].start(); err != nil {
			log.Fatal(err)
		}
	}
	groups := make([][]string, numShards)
	for i, n := range nodes {
		groups[i] = []string{n.addr}
	}

	// Baseline: single-process server over the same data, never faulted.
	// Its answers define "exact" for every scatter response.
	baseSrv := serve.New(serve.Config{CacheBytes: -1})
	if err := baseSrv.AddDataset("lwfa", dir); err != nil {
		log.Fatal(err)
	}
	baseTS := httptest.NewServer(baseSrv)

	// Frontend under test: breakers, retry budget, deadline budgets on.
	front, frontTS, frontClient := newFrontend(dir, groups, true, time.Second)

	h := &harness{
		baseTS:   baseTS,
		baseline: make(map[string]map[string]any),
	}

	var phases []phaseReport
	schedule := []struct {
		name   string
		inject func()
		heal   func()
	}{
		{"healthy", func() {}, func() {}},
		{"stall", func() { nodes[1].fl.SetStall(400 * time.Millisecond) }, func() { nodes[1].fl.SetStall(0) }},
		{"partition", func() { nodes[2].fl.SetPartitioned(true) }, func() { nodes[2].fl.SetPartitioned(false) }},
		{"corrupt", func() { nodes[0].fl.SetCorrupt(true) }, func() { nodes[0].fl.SetCorrupt(false) }},
		{"truncate", func() { nodes[1].fl.SetTruncate(true) }, func() { nodes[1].fl.SetTruncate(false) }},
		{"crash-restart", func() { nodes[2].kill() }, func() {
			if err := nodes[2].start(); err != nil {
				log.Fatalf("restart shard 2: %v", err)
			}
		}},
	}
	totalViolations := 0
	var totalReqs, totalExact, totalOK int
	rejects := obs.Default().Counter("shard_reply_corrupt_total", "")
	corruptWrites := func() (n int64) {
		for _, nd := range nodes {
			n += nd.fl.Stats().Corrupts
		}
		return n
	}
	for _, ph := range schedule {
		log.Printf("phase %s: injecting", ph.name)
		writes0, rejects0 := corruptWrites(), rejects.Load()
		ph.inject()
		res := h.drive(frontTS, *perPhase)
		writes, rejected := corruptWrites()-writes0, rejects.Load()-rejects0
		ph.heal()
		rep := h.classify(ph.name, res)
		rep.CorruptWrites, rep.ChecksumRejects = writes, rejected
		rec, err := h.waitRecovered(frontTS, frontClient)
		if err != nil {
			log.Printf("phase %s: RECOVERY FAILED: %v", ph.name, err)
			rep.Violations++
		}
		rep.RecoveryMS = float64(rec) / float64(time.Millisecond)
		if ph.name == "healthy" && rep.Exact != rep.Requests {
			log.Printf("phase healthy: %d/%d exact — a fault-free fleet must answer exactly",
				rep.Exact, rep.Requests)
			rep.Violations++
		}
		log.Printf("phase %s: %d requests, %d exact, %d partial, %d errors, %d violations, p99 %.1fms, recovery %.0fms, %d corrupt writes, %d checksum rejects",
			ph.name, rep.Requests, rep.Exact, rep.Partial, rep.Errors, rep.Violations, rep.P99MS, rep.RecoveryMS,
			rep.CorruptWrites, rep.ChecksumRejects)
		totalViolations += rep.Violations
		totalReqs += rep.Requests
		totalExact += rep.Exact
		totalOK += rep.Exact + rep.Partial
		phases = append(phases, rep)
	}

	// Breakers-on vs breakers-off under a blackholed shard: the breaker
	// should turn every post-trip request into a fast marked partial,
	// while the no-breaker frontend re-eats the attempt timeouts forever.
	killRep, kv := h.killOneShard(dir, groups, nodes[1], frontTS)
	totalViolations += kv

	// Teardown, then the goroutine bookend (invariant 4).
	frontTS.Close()
	front.Close()
	baseTS.Close()
	baseSrv.Close()
	for _, n := range nodes {
		n.close()
	}
	endGoroutines := waitGoroutinesSettle(baseGoroutines)
	if endGoroutines > baseGoroutines+10 {
		log.Printf("GOROUTINE LEAK: %d at start, %d after teardown", baseGoroutines, endGoroutines)
		totalViolations++
	}

	rep := report{
		Seed:            *faultSeed,
		Shards:          numShards,
		Phases:          phases,
		KillOneShard:    killRep,
		Availability:    ratio(totalOK, totalReqs),
		Exactness:       ratio(totalExact, totalReqs),
		Violations:      totalViolations,
		GoroutinesStart: baseGoroutines,
		GoroutinesEnd:   endGoroutines,
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("report written to %s", *out)
	log.Printf("availability %.3f, exactness %.3f, breakers-on p99 %.1fms vs breakers-off %.1fms",
		rep.Availability, rep.Exactness, killRep.BreakersOnP99MS, killRep.BreakersOffP99MS)
	if totalViolations > 0 {
		log.Fatalf("%d invariant violations", totalViolations)
	}
	log.Printf("all invariants held")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// newFrontend builds a scatter frontend over the fleet. The result cache
// is disabled so every request really exercises the fault path.
func newFrontend(dir string, groups [][]string, breakers bool, cooldown time.Duration) (*serve.Server, *httptest.Server, *shard.Client) {
	s := serve.New(serve.Config{CacheBytes: -1, ExecTimeout: execTimeout})
	if err := s.AddDataset("lwfa", dir); err != nil {
		log.Fatal(err)
	}
	cfg := cluster.DefaultPoolConfig()
	cfg.CallTimeout = 300 * time.Millisecond
	cfg.MaxRetries = 1
	cfg.BackoffBase = 2 * time.Millisecond
	cfg.BackoffMax = 10 * time.Millisecond
	cfg.ProbeInterval = 200 * time.Millisecond
	if breakers {
		cfg.Breaker = cluster.DefaultBreakerConfig()
		cfg.Breaker.Cooldown = cooldown
		cfg.RetryBudgetRatio = 0.1
	}
	c, err := shard.DialShards(groups, cfg, 0)
	if err != nil {
		log.Fatal(err)
	}
	s.SetShardClient(c) // closed by s.Close
	return s, httptest.NewServer(s), c
}

type harness struct {
	baseTS *httptest.Server

	mu       sync.Mutex
	baseline map[string]map[string]any // path -> normalized fault-free answer
	pathSeq  int                       // global offset so phases never reuse a path
}

// pathFor rotates across the query surface — count, 1D and 2D conditional
// histograms, home-shard and two-phase routing — with parameters varied by
// index so the frontend's result cache cannot mask the fault path.
func pathFor(i int) string {
	step := i % 3
	thresh := url.QueryEscape(fmt.Sprintf("px > 0.000%d", 1+i%8))
	switch i % 4 {
	case 0:
		return fmt.Sprintf("/v1/query?dataset=lwfa&step=%d&q=%s", step, thresh)
	case 1:
		return fmt.Sprintf("/v1/hist1d?dataset=lwfa&step=%d&var=x&bins=%d&q=%s", step, 8+i%23, thresh)
	case 2:
		return fmt.Sprintf("/v1/hist1d?dataset=lwfa&step=%d&var=x&bins=%d", step, 8+i%23)
	default:
		return fmt.Sprintf("/v1/hist2d?dataset=lwfa&step=%d&x=x&y=px&xbins=%d&ybins=%d&q=%s",
			step, 6+i%11, 6+i%7, thresh)
	}
}

// volatile are per-request fields stripped before comparing a scatter
// answer against the baseline.
var volatile = []string{"elapsed_ms", "outcome", "mode", "trace_id", "degraded", "degraded_mode"}

func normalize(body map[string]any) map[string]any {
	for _, k := range volatile {
		delete(body, k)
	}
	return body
}

// fetch performs one request, decoding the body and the partial marking.
func fetch(ts *httptest.Server, client *http.Client, path string) result {
	start := time.Now()
	resp, err := client.Get(ts.URL + path)
	r := result{path: path}
	if err != nil {
		r.err = err
		r.dur = time.Since(start)
		return r
	}
	defer resp.Body.Close()
	r.code = resp.StatusCode
	r.partial = resp.Header.Get("X-Partial") != "" || resp.Header.Get("X-Degraded") != ""
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		r.err = err
	} else {
		r.body = m
	}
	r.dur = time.Since(start)
	return r
}

// baselineFor lazily computes the fault-free answer for a path.
func (h *harness) baselineFor(path string) (map[string]any, error) {
	h.mu.Lock()
	if b, ok := h.baseline[path]; ok {
		h.mu.Unlock()
		return b, nil
	}
	h.mu.Unlock()
	r := fetch(h.baseTS, http.DefaultClient, path)
	if r.err != nil || r.code != http.StatusOK {
		return nil, fmt.Errorf("baseline %s: code %d err %v", path, r.code, r.err)
	}
	b := normalize(r.body)
	h.mu.Lock()
	h.baseline[path] = b
	h.mu.Unlock()
	return b, nil
}

// drive issues n requests through the frontend with bounded concurrency,
// using globally fresh paths so nothing is answered from a warm fragment.
func (h *harness) drive(ts *httptest.Server, n int) []result {
	h.mu.Lock()
	offset := h.pathSeq
	h.pathSeq += n
	h.mu.Unlock()

	client := &http.Client{Timeout: execTimeout + deadlineSlack + 2*time.Second}
	out := make([]result, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, driveConc)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = fetch(ts, client, pathFor(offset+i))
		}(i)
	}
	wg.Wait()
	return out
}

// classify folds driven results into a phase report, checking invariants
// 1 (exact or marked) and 2 (bounded latency).
func (h *harness) classify(name string, results []result) phaseReport {
	rep := phaseReport{Name: name, Requests: len(results)}
	var durs []time.Duration
	for _, r := range results {
		durs = append(durs, r.dur)
		if r.dur > execTimeout+deadlineSlack {
			log.Printf("phase %s: %s outlived its deadline: %v", name, r.path, r.dur)
			rep.Violations++
		}
		switch {
		case r.err != nil || r.code >= 500:
			// A clean, explicit failure: hurts availability, not correctness.
			rep.Errors++
		case r.code != http.StatusOK:
			log.Printf("phase %s: %s: unexpected status %d", name, r.path, r.code)
			rep.Violations++
		case r.partial:
			rep.Partial++
		default:
			base, err := h.baselineFor(r.path)
			if err != nil {
				log.Printf("phase %s: %v", name, err)
				rep.Violations++
				continue
			}
			if !reflect.DeepEqual(normalize(r.body), base) {
				log.Printf("phase %s: %s: unmarked response differs from baseline", name, r.path)
				rep.Violations++
				continue
			}
			rep.Exact++
		}
	}
	rep.P50MS = pctMS(durs, 0.50)
	rep.P99MS = pctMS(durs, 0.99)
	return rep
}

// waitRecovered polls until a fresh request answers exactly and every
// breaker reads closed, returning how long the fleet took (invariant 3).
func (h *harness) waitRecovered(ts *httptest.Server, c *shard.Client) (time.Duration, error) {
	start := time.Now()
	client := &http.Client{Timeout: execTimeout + 2*time.Second}
	for {
		h.mu.Lock()
		path := pathFor(h.pathSeq)
		h.pathSeq++
		h.mu.Unlock()
		r := fetch(ts, client, path)
		exact := false
		if r.err == nil && r.code == http.StatusOK && !r.partial {
			if base, err := h.baselineFor(path); err == nil {
				exact = reflect.DeepEqual(normalize(r.body), base)
			}
		}
		if exact && breakersClosed(c) {
			return time.Since(start), nil
		}
		if time.Since(start) > recoveryLimit {
			return time.Since(start), fmt.Errorf("not recovered after %v (exact=%v breakersClosed=%v)",
				recoveryLimit, exact, breakersClosed(c))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func breakersClosed(c *shard.Client) bool {
	if c == nil {
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, st := range c.Stats(ctx, time.Second) {
		for _, rs := range st.ReplicaState {
			if rs.Breaker != "closed" || !rs.Healthy {
				return false
			}
		}
	}
	return true
}

// killOneShard partitions one shard (a blackhole, the worst-case "kill":
// no RST, just silence) and measures steady-state p99 through a frontend
// with breakers against one without. The breaker frontend is given a long
// cooldown so half-open probes do not pollute the steady-state sample.
func (h *harness) killOneShard(dir string, groups [][]string, victim *node, mainTS *httptest.Server) (killShardReport, int) {
	const recorded = 60
	violations := 0

	onSrv, onTS, _ := newFrontend(dir, groups, true, time.Minute)
	offSrv, offTS, _ := newFrontend(dir, groups, false, 0)

	victim.fl.SetPartitioned(true)
	log.Printf("kill-one-shard: shard %d partitioned", victim.idx)

	// Warm the breakers past their trip point; not recorded.
	h.drive(onTS, 12)
	onRes := h.drive(onTS, recorded)
	offRes := h.drive(offTS, recorded)

	victim.fl.SetPartitioned(false)

	krep := killShardReport{
		BreakersOnP99MS:  pctMS(durations(onRes), 0.99),
		BreakersOffP99MS: pctMS(durations(offRes), 0.99),
		Requests:         recorded,
	}
	// Invariant 1 still holds under the dead shard: an unmarked 200 must
	// match the baseline exactly; anything else must be marked partial or
	// fail cleanly.
	for _, r := range append(onRes, offRes...) {
		if r.err != nil || r.code != http.StatusOK || r.partial {
			continue
		}
		base, err := h.baselineFor(r.path)
		if err != nil || !reflect.DeepEqual(normalize(r.body), base) {
			log.Printf("kill-one-shard: %s: unmarked answer differs from baseline", r.path)
			violations++
		}
	}
	if krep.BreakersOnP99MS >= krep.BreakersOffP99MS {
		log.Printf("kill-one-shard: breakers-on p99 %.1fms not below breakers-off %.1fms",
			krep.BreakersOnP99MS, krep.BreakersOffP99MS)
		violations++
	}

	onTS.Close()
	onSrv.Close()
	offTS.Close()
	offSrv.Close()

	// The main frontend saw the same partition heal; wait for it too.
	if _, err := h.waitRecovered(mainTS, nil); err != nil {
		log.Printf("kill-one-shard: main frontend recovery: %v", err)
		violations++
	}
	return krep, violations
}

func durations(rs []result) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, r := range rs {
		out[i] = r.dur
	}
	return out
}

func pctMS(durs []time.Duration, q float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return float64(s[idx]) / float64(time.Millisecond)
}

// waitGoroutinesSettle gives teardown a bounded window to drain before
// the leak check reads the final count.
func waitGoroutinesSettle(base int) int {
	deadline := time.Now().Add(10 * time.Second)
	n := runtime.NumGoroutine()
	for n > base+10 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
