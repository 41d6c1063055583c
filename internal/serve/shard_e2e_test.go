// End-to-end tests for the sharded serving tier: a frontend scattering
// over real shard RPC workers must answer exactly like the single-process
// server, keep answering (marked partial) when a shard dies, and survive
// concurrent scatter during a mid-flight shard kill under the race
// detector.
package serve

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/faultnet"
	"repro/internal/fastbit"
	"repro/internal/shard"
	"repro/internal/sim"
)

// shardFleet is a set of in-process shard workers with per-shard kill
// switches — StartLocalShards only offers group shutdown, and these tests
// need to murder one shard while the rest keep serving.
type shardFleet struct {
	groups [][]string
	kill   []func() // idempotent, per shard
}

func (f *shardFleet) Close() {
	for _, k := range f.kill {
		k()
	}
}

// startShardFleet launches n single-replica shard workers over the shared
// test dataset. wrap, when non-nil, may interpose on shard i's listener
// (fault injection); it returns the listener to serve on plus an extra
// teardown hook folded into that shard's kill switch.
func startShardFleet(t *testing.T, n int, wrap func(i int, l net.Listener) (net.Listener, func())) *shardFleet {
	t.Helper()
	return startShardFleetOf(t, n, wrap, map[string]string{"lwfa": testDataDir(t)})
}

// startShardFleetOf is startShardFleet serving the datasets given by name
// and directory.
func startShardFleetOf(t *testing.T, n int, wrap func(i int, l net.Listener) (net.Listener, func()), datasets map[string]string) *shardFleet {
	t.Helper()
	fleet := &shardFleet{}
	for i := 0; i < n; i++ {
		ex := shard.NewExecutor(shard.FragCacheBytes)
		for name, dir := range datasets {
			if err := ex.AddDataset(name, dir); err != nil {
				ex.Close()
				fleet.Close()
				t.Fatal(err)
			}
		}
		srv, err := shard.NewServer(shard.NewService(ex, nil))
		if err != nil {
			ex.Close()
			fleet.Close()
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ex.Close()
			fleet.Close()
			t.Fatal(err)
		}
		addr := l.Addr().String()
		extra := func() {}
		if wrap != nil {
			l, extra = wrap(i, l)
		}
		srv.Serve(l)
		var once sync.Once
		srvRef, exRef, extraRef := srv, ex, extra
		fleet.kill = append(fleet.kill, func() {
			once.Do(func() {
				extraRef()
				srvRef.Close()
				exRef.Close()
			})
		})
		fleet.groups = append(fleet.groups, []string{addr})
	}
	t.Cleanup(fleet.Close)
	return fleet
}

// frontendServer builds a serve.Server scattering over the fleet, plus a
// test HTTP wrapper.
func frontendServer(t *testing.T, fleet *shardFleet) (*Server, *httptest.Server) {
	return frontendServerCfg(t, fleet, Config{})
}

func frontendServerCfg(t *testing.T, fleet *shardFleet, scfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := testServer(t, scfg)
	cfg := cluster.DefaultPoolConfig()
	cfg.CallTimeout = 10 * time.Second
	cfg.MaxRetries = 1
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 5 * time.Millisecond
	c, err := shard.DialShards(fleet.groups, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetShardClient(c) // closed by s.Close via testServer cleanup
	return s, ts
}

// getFull fetches a path and returns status, X-Partial header, and body.
func getFull(t *testing.T, ts *httptest.Server, path string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Partial"), b
}

func TestFrontendShardIdentity(t *testing.T) {
	fleet := startShardFleet(t, 3, nil)
	front, fts := frontendServer(t, fleet)
	_, bts := testServer(t, Config{}) // single-process baseline

	q := url.QueryEscape("px > 0.001")
	paths := []string{
		"/v1/query?dataset=lwfa&step=1&q=" + q,
		"/v1/hist1d?dataset=lwfa&step=1&var=x&bins=24&q=" + q, // two-phase min/max
		"/v1/hist1d?dataset=lwfa&step=1&var=x&bins=16",        // unconditional min/max phase
		"/v1/hist2d?dataset=lwfa&step=1&x=x&y=px&xbins=12&ybins=12&q=" + q,
		"/v1/query?dataset=lwfa&step=2&q=" + url.QueryEscape("px > 0.002 && x > 0"),
	}
	for _, p := range paths {
		var got, want map[string]any
		if code, _ := get(t, fts, p, &got); code != http.StatusOK {
			t.Fatalf("%s: frontend status %d", p, code)
		}
		if code, _ := get(t, bts, p, &want); code != http.StatusOK {
			t.Fatalf("%s: baseline status %d", p, code)
		}
		for _, volatile := range []string{"elapsed_ms", "outcome", "mode", "trace_id"} {
			delete(got, volatile)
			delete(want, volatile)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nfrontend %v\nbaseline %v", p, got, want)
		}
		if p, ok := got["partial"]; ok && p != false {
			t.Fatalf("complete fleet produced partial response: %v", got)
		}
	}
	if front.scatters.Load() == 0 {
		t.Fatal("frontend never scattered — requests took the local path")
	}
}

func TestFrontendPartialOnShardDeath(t *testing.T) {
	fleet := startShardFleet(t, 3, nil)
	front, fts := frontendServer(t, fleet)

	// Warm path while healthy.
	var warm QueryBody
	if code, body := get(t, fts, "/v1/query?dataset=lwfa&step=0&q="+url.QueryEscape("px > 0.0004"), &warm); code != http.StatusOK {
		t.Fatalf("warm status %d: %s", code, body)
	}
	if warm.Partial {
		t.Fatal("healthy fleet answered partial")
	}

	fleet.kill[1]()

	// A fresh (uncached) scatter must keep serving, marked partial, with
	// the dead shard identified.
	path := "/v1/query?dataset=lwfa&step=0&q=" + url.QueryEscape("px > 0.0005")
	code, hdr, body := getFull(t, fts, path)
	if code != http.StatusOK {
		t.Fatalf("post-kill status %d: %s", code, body)
	}
	var pb QueryBody
	if code, _ := get(t, fts, path, &pb); code != http.StatusOK {
		t.Fatal("second partial fetch failed")
	}
	if !pb.Partial || !reflect.DeepEqual(pb.FailedShards, []int{1}) {
		t.Fatalf("body = %+v, want partial with failed_shards [1]", pb)
	}
	if hdr != "1" {
		t.Fatalf("X-Partial = %q, want 1", hdr)
	}
	if front.partials.Load() == 0 {
		t.Fatal("serve_partial_total not incremented")
	}

	// Partial answers must not poison the result cache: the retry above
	// recomputed (still partial) rather than replaying a cached partial
	// as if complete.
	if !pb.Partial {
		t.Fatal("cached partial replayed")
	}

	// A sweep crossing the dead shard is marked the same three ways —
	// header, body, explain — with the short steps and the missing shard
	// named; its totals are the survivors', never passed off as complete.
	sweep := "/v1/sweep2d?dataset=lwfa&x=x&y=px&xbins=8&ybins=8&debug=explain&q=" + url.QueryEscape("px > 0.0005")
	var sb Sweep2DBody
	if code, body := get(t, fts, sweep, &sb); code != http.StatusOK {
		t.Fatalf("post-kill sweep status %d: %s", code, body)
	}
	if _, hdr, _ := getFull(t, fts, sweep); hdr != "1" {
		t.Fatalf("sweep X-Partial = %q, want 1", hdr)
	}
	if !sb.Partial || !reflect.DeepEqual(sb.FailedShards, []int{1}) || !reflect.DeepEqual(sb.FailedSteps, sb.Steps) {
		t.Fatalf("sweep body = %+v, want partial on every step with failed_shards [1]", sb)
	}
	if sb.Explain == nil || !sb.Explain.Partial || !reflect.DeepEqual(sb.Explain.FailedShards, []int{1}) {
		t.Fatalf("sweep explain = %+v, want partial with failed_shards [1]", sb.Explain)
	}
	var full Sweep2DBody
	_, bts := testServer(t, Config{})
	if code, body := get(t, bts, sweep, &full); code != http.StatusOK {
		t.Fatalf("baseline sweep status %d: %s", code, body)
	}
	if sb.Total >= full.Total {
		t.Fatalf("partial sweep total %d not short of the complete %d", sb.Total, full.Total)
	}
}

// TestBudgetPartialNotCached: when the request deadline leaves less than
// the scatter client's budget slack, every fragment is refused before the
// RPC and the response must be an empty marked partial — HTTP 200, all
// shards listed failed — and must never enter the result cache (a later
// request with more time deserves a real answer, and here would recompute
// the same partial rather than replay it as if complete).
func TestBudgetPartialNotCached(t *testing.T) {
	fleet := startShardFleet(t, 3, nil)
	// ExecTimeout below the scatter client's budget slack (25ms): the per-fragment
	// budget is negative at dispatch, so the shed is deterministic and no
	// shard RPC is ever made.
	s, fts := frontendServerCfg(t, fleet, Config{ExecTimeout: 20 * time.Millisecond})

	path := "/v1/query?dataset=lwfa&step=0&q=" + url.QueryEscape("px > 0.0007")
	code, hdr, body := getFull(t, fts, path)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 marked-partial (not 504): %s", code, body)
	}
	if hdr != "1" {
		t.Fatalf("X-Partial = %q, want 1", hdr)
	}
	var pb QueryBody
	if code, _ := get(t, fts, path, &pb); code != http.StatusOK {
		t.Fatal("second fetch failed")
	}
	if !pb.Partial || pb.Matches != 0 || !reflect.DeepEqual(pb.FailedShards, []int{0, 1, 2}) {
		t.Fatalf("body = %+v, want empty partial with failed_shards [0 1 2]", pb)
	}

	// Budget partials must never be cached: repeated fetches recompute
	// (cache misses), they do not replay a stored partial as a hit.
	hits := s.cache.Stats().Hits
	for i := 0; i < 3; i++ {
		if code, _, _ := getFull(t, fts, path); code != http.StatusOK {
			t.Fatalf("refetch %d failed", i)
		}
	}
	if got := s.cache.Stats().Hits; got != hits {
		t.Fatalf("cache hits %d -> %d: a budget partial was cached", hits, got)
	}
}

// TestConcurrentScatterShardKill exercises concurrent scatters while one
// shard — slowed by fault injection so requests are genuinely mid-flight —
// is killed. Run under -race; the assertion is "no races, no panics, every
// response is either complete, partial, or a clean error".
func TestConcurrentScatterShardKill(t *testing.T) {
	var victim *faultnet.Listener
	fleet := startShardFleet(t, 3, func(i int, l net.Listener) (net.Listener, func()) {
		if i != 2 {
			return l, func() {}
		}
		victim = faultnet.Wrap(l, faultnet.Config{Seed: 7, Latency: 2 * time.Millisecond})
		return victim, victim.Kill
	})
	_, fts := frontendServer(t, fleet)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 5; i++ {
				// Distinct bins and thresholds bust the result cache
				// so every request really scatters.
				path := fmt.Sprintf("/v1/hist1d?dataset=lwfa&step=%d&var=x&bins=%d&q=%s",
					i%3, 8+g*5+i, url.QueryEscape(fmt.Sprintf("px > 0.000%d", g+1)))
				resp, err := http.Get(fts.URL + path)
				if err != nil {
					continue // transport-level failure: acceptable during the kill
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode < 500 {
					t.Errorf("unexpected status %d for %s", resp.StatusCode, path)
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(5 * time.Millisecond)
	fleet.kill[2]()
	wg.Wait()
}

// TestShardIndexBytesFollowRows: each shard keeps the column indexes of
// its own rows only, so after one fixed stream of ranged requests the
// fleet's decoded index bytes, summed over its three shards, come within
// 10% of the one process's (a one-shard fleet, whose fragments cover
// whole steps) — not three times it — and /v1/stats shows each shard's
// figure beside its cache bytes. The steps are 40 000 rows: on the shared
// 3 000-row test steps a bitmap is a few words, and the header each
// shard's cut carries would be most of the figure.
func TestShardIndexBytesFollowRows(t *testing.T) {
	dir := t.TempDir()
	cfg := sim.DefaultConfig()
	cfg.Steps, cfg.BackgroundPerStep, cfg.BeamParticles = 2, 40000, 60
	if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{Index: fastbit.IndexOptions{Bins: 64}}); err != nil {
		t.Fatal(err)
	}
	stream := []string{"px > 1e9 && x > 0", "y < 0", "!(z > 0) || px < 0"}
	indexBytes := func(shards int) (sum int) {
		s, fts := frontendServer(t, startShardFleetOf(t, shards, nil, map[string]string{"big": dir}))
		if err := s.AddDataset("big", dir); err != nil {
			t.Fatal(err)
		}
		for _, q := range stream {
			for _, p := range []string{"/v1/query?dataset=big&q=",
				"/v1/hist2d?dataset=big&x=x&y=px&xbins=12&ybins=12&xlo=-1&xhi=1&ylo=-1&yhi=1&q="} {
				if code, _, body := getFull(t, fts, p+url.QueryEscape(q)); code != http.StatusOK {
					t.Fatalf("%d shards: %s: %d %s", shards, p, code, body)
				}
			}
		}
		var stats StatsBody
		get(t, fts, "/v1/stats", &stats)
		if stats.Sharding == nil || len(stats.Sharding.ShardStatus) != shards {
			t.Fatalf("%d shards: /v1/stats sharding %+v", shards, stats.Sharding)
		}
		for _, st := range stats.Sharding.ShardStatus {
			if st.Stats.IndexBytes <= 0 {
				t.Fatalf("%d shards: shard %d keeps %d index bytes", shards, st.Shard, st.Stats.IndexBytes)
			}
			sum += st.Stats.IndexBytes
		}
		return sum
	}
	one, three := indexBytes(1), indexBytes(3)
	ratio := float64(three) / float64(one)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("3 shards keep %d index bytes in all, one process %d (×%.2f)", three, one, ratio)
	}
	t.Logf("3 shards keep %d index bytes in all, one process %d (×%.3f)", three, one, ratio)
}
