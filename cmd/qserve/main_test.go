package main

import (
	"errors"
	"flag"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fastbit"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/shard"
)

// TestFlaglessDefaults is the guard that a qserve started with no tuning
// flags (every server bench/ and CI start) is configured as it always was.
// It checks the parsed settings field by field: a field a flag feeds holds
// that flag's default, and every other field is zero, i.e. left to the
// component's own default. Those component defaults are pinned either
// right here, through the component's exported surface, or by the
// component's own defaults test (serve TestConfigDefaults, session
// TestConfigDefaults, obs TestComponentDefaults; the scatter client's 25ms
// budget slack by serve TestBudgetPartialNotCached).
func TestFlaglessDefaults(t *testing.T) {
	httpCfg := serve.Config{
		Concurrency: 8,
		LimitMode:   "aimd",
		SLO:         250 * time.Millisecond,
		Brownout:    true,
		BurnFast:    5 * time.Minute,
		BurnSlow:    time.Hour,
		ProfileCPU:  2 * time.Second,
	}
	frontendPool := cluster.DefaultPoolConfig()
	frontendPool.Breaker = cluster.DefaultBreakerConfig()
	frontendPool.RetryBudgetRatio = 0.1

	cases := []struct {
		name string
		args []string
		want settings
	}{
		{"local", []string{"-data", "d"}, settings{
			role: "local", datas: dataFlags{"d"}, addr: "127.0.0.1:8080", rpcAddr: "127.0.0.1:7071",
			serve: httpCfg,
		}},
		{"live", []string{"-data", "d", "-live"}, settings{
			role: "local", datas: dataFlags{"d"}, addr: "127.0.0.1:8080", rpcAddr: "127.0.0.1:7071",
			serve: httpCfg, live: &serve.LiveConfig{IngestWorkers: 1},
		}},
		{"shard", []string{"-data", "d", "-role", "shard"}, settings{
			role: "shard", datas: dataFlags{"d"}, addr: "127.0.0.1:8080", rpcAddr: "127.0.0.1:7071",
			serve: httpCfg,
		}},
		{"frontend", []string{"-data", "d", "-role", "frontend", "-shards", "a:1,b:2,c:3"}, settings{
			role: "frontend", datas: dataFlags{"d"}, addr: "127.0.0.1:8080", rpcAddr: "127.0.0.1:7071",
			serve:  httpCfg,
			groups: [][]string{{"a:1"}, {"b:2"}, {"c:3"}},
			pool:   frontendPool,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseFlags(tc.args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*got, tc.want) {
				t.Fatalf("settings\n got %+v\nwant %+v", *got, tc.want)
			}

			// The admission gate every role builds: 8 slots growing to 8×,
			// a 2×-concurrency queue with a 2s wait, AIMD against 250ms.
			gc := got.serve.GateConfig()
			if gc.QueueTimeout != 2*time.Second || gc.SLO != 250*time.Millisecond || gc.Mode != serve.LimitAIMD {
				t.Errorf("gate config %+v", gc)
			}
			gs := serve.NewGate(gc).Stats()
			if gs.Limit != 8 || gs.MaxLimit != 64 || gs.QueueDepth != 16 || gs.Mode != "aimd" {
				t.Errorf("gate limit/max/queue/mode = %d/%d/%d/%s, want 8/64/16/aimd",
					gs.Limit, gs.MaxLimit, gs.QueueDepth, gs.Mode)
			}
		})
	}

	// Values with no flag that are visible from here.
	if serve.DefaultCacheBytes != 64<<20 || shard.FragCacheBytes != 64<<20 {
		t.Errorf("result cache = %d bytes, shard handoff store = %d bytes, want 64 MiB each",
			serve.DefaultCacheBytes, shard.FragCacheBytes)
	}
	if fastbit.DefaultBins != 256 {
		t.Errorf("live index bins default = %d, want 256", fastbit.DefaultBins)
	}
	if obs.NewTrace("", "default") == nil {
		t.Error("tracing and latency histograms are off by default")
	}
	if got := cluster.NewRetryBudget(frontendPool.RetryBudgetRatio).Tokens(); got != 20 {
		t.Errorf("retry budget burst = %v tokens, want 20", got)
	}
	// The HTTP server must outlast serve's 30s execution deadline.
	if writeTimeout != 60*time.Second || drainTimeout != 35*time.Second {
		t.Errorf("write/drain timeouts = %v/%v, want 60s/35s", writeTimeout, drainTimeout)
	}
}

// TestSurvivingFlagsReachSettings: each tuning flag that survived lands in
// the field its component reads.
func TestSurvivingFlagsReachSettings(t *testing.T) {
	got, err := parseFlags([]string{
		"-data", "a=/x", "-data", "/y", "-addr", ":1", "-admin-addr", ":2",
		"-role", "frontend", "-shards", "a,b,c,d", "-replicas", "2", "-hedge", "5ms",
		"-concurrency", "4", "-limit-mode", "fixed", "-slo", "150ms", "-brownout=false",
		"-burn-fast", "5s", "-burn-slow", "10s", "-burn-cooldown", "1h",
		"-profile-dir", "/p", "-profile-cpu", "1s",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := serve.Config{
		Concurrency: 4, LimitMode: "fixed", SLO: 150 * time.Millisecond,
		BurnFast: 5 * time.Second, BurnSlow: 10 * time.Second, BurnCooldown: time.Hour,
		ProfileDir: "/p", ProfileCPU: time.Second,
	}
	if !reflect.DeepEqual(got.serve, want) {
		t.Errorf("serve config\n got %+v\nwant %+v", got.serve, want)
	}
	if !reflect.DeepEqual(got.datas, dataFlags{"a=/x", "/y"}) || got.addr != ":1" || got.adminAddr != ":2" {
		t.Errorf("deployment settings: %+v", got)
	}
	if !reflect.DeepEqual(got.groups, [][]string{{"a", "b"}, {"c", "d"}}) || got.hedge != 5*time.Millisecond {
		t.Errorf("fleet settings: groups %v hedge %v", got.groups, got.hedge)
	}

	live, err := parseFlags([]string{"-data", "d", "-live", "-ingest-workers", "3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if live.live == nil || live.live.IngestWorkers != 3 {
		t.Errorf("live settings: %+v", live.live)
	}
}

// TestRemovedFlagsRejected: the twenty flags that had one value in use are
// gone — the flag package refuses them (exit 2 in main), it does not
// ignore them.
func TestRemovedFlagsRejected(t *testing.T) {
	removed := []string{
		"cache-entries", "queue", "queue-timeout", "exec-timeout", "slow-threshold",
		"max-concurrency", "obs", "catalog-poll", "index-bins", "frag-cache",
		"burn-budget", "burn-threshold", "profile-captures",
		"session-ttl", "session-max", "session-max-bytes",
		"breaker", "retry-budget", "retry-budget-burst", "budget-slack",
	}
	for _, name := range removed {
		var stderr strings.Builder
		_, err := parseFlags([]string{"-data", "d", "-" + name + "=1"}, &stderr)
		if err == nil || errors.Is(err, flag.ErrHelp) {
			t.Errorf("-%s: accepted (err %v)", name, err)
			continue
		}
		if want := "flag provided but not defined: -" + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("-%s: stderr %q lacks %q", name, stderr.String(), want)
		}
	}
}

// TestFlagBudget: the command line has exactly the documented flags.
func TestFlagBudget(t *testing.T) {
	var usage strings.Builder
	if _, err := parseFlags([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	want := strings.Fields("addr admin-addr brownout burn-cooldown burn-fast burn-slow concurrency data " +
		"hedge ingest-workers limit-mode live profile-cpu profile-dir replicas role rpc-addr shards slo")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags\n got %v\nwant %v", got, want)
	}
}

// TestConfigSurface: the exported fields of every serving-tier config
// struct, and the flight recorder's parameters. A knob added or removed
// shows up here as a diff. PoolConfig.Breaker is the BreakerConfig row,
// not a value of its own: 41 settable values in all.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeOf(cluster.PoolConfig{}),
			"CallTimeout MaxRetries BackoffBase BackoffMax ProbeInterval Breaker RetryBudgetRatio RetryBudget"},
		{reflect.TypeOf(cluster.BreakerConfig{}), "Enabled Cooldown"},
		{reflect.TypeOf(serve.Config{}),
			"CacheBytes Concurrency QueueDepth QueueTimeout ExecTimeout SlowThreshold Logger " +
				"LimitMode SLO Brownout BurnFast BurnSlow BurnCooldown ProfileDir ProfileCPU"},
		{reflect.TypeOf(serve.GateConfig{}), "Limit QueueDepth QueueTimeout Mode SLO"},
		{reflect.TypeOf(session.Config{}), "MaxBytes Now"},
		{reflect.TypeOf(serve.LiveConfig{}), "IngestWorkers CatalogPoll IndexVars Index"},
		{reflect.TypeOf(obs.BurnConfig{}), "Fast Slow Cooldown OnBreach"},
		{reflect.TypeOf(obs.NewFlightRecorder), "string time.Duration"},
	} {
		var got []string
		if tc.typ.Kind() == reflect.Func {
			for i := 0; i < tc.typ.NumIn(); i++ {
				got = append(got, tc.typ.In(i).String())
			}
		} else {
			for i := 0; i < tc.typ.NumField(); i++ {
				if f := tc.typ.Field(i); f.IsExported() {
					got = append(got, f.Name)
				}
			}
		}
		if want := strings.Fields(tc.want); !reflect.DeepEqual(got, want) {
			t.Errorf("%v\n got %v\nwant %v", tc.typ, got, want)
		}
	}
}

// TestRoleFlagMatrix: a flag the selected role would ignore is a usage
// error naming the flag and the role, never a silent no-op.
func TestRoleFlagMatrix(t *testing.T) {
	base := map[string][]string{
		"local":    {"-data", "d"},
		"frontend": {"-data", "d", "-role", "frontend", "-shards", "a:1"},
		"shard":    {"-data", "d", "-role", "shard"},
	}
	// One settable example per flag (-data and -role are in every base)
	// and the roles that read it.
	for _, fl := range []struct{ name, arg, roles string }{
		{"addr", "-addr=:1", "local frontend"},
		{"admin-addr", "-admin-addr=:2", "local frontend shard"},
		{"rpc-addr", "-rpc-addr=:3", "shard"},
		{"shards", "-shards=a:1", "frontend"},
		{"replicas", "-replicas=1", "frontend"},
		{"hedge", "-hedge=1ms", "frontend"},
		{"live", "-live", "local"},
		{"ingest-workers", "-live -ingest-workers=2", "local"},
		{"concurrency", "-concurrency=4", "local frontend shard"},
		{"limit-mode", "-limit-mode=fixed", "local frontend shard"},
		{"slo", "-slo=50ms", "local frontend shard"},
		{"brownout", "-brownout=false", "local frontend"},
		{"burn-fast", "-burn-fast=5s", "local frontend"},
		{"burn-slow", "-burn-slow=5s", "local frontend"},
		{"burn-cooldown", "-burn-cooldown=1h", "local frontend"},
		{"profile-dir", "-profile-dir=/x", "local frontend"},
		{"profile-cpu", "-profile-cpu=1s", "local frontend"},
	} {
		for role, args := range base {
			args = append(append([]string{}, args...), strings.Fields(fl.arg)...)
			_, err := parseFlags(args, io.Discard)
			if slices.Contains(strings.Fields(fl.roles), role) {
				if err != nil {
					t.Errorf("-role %s %s: %v", role, fl.arg, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), "-"+fl.name) || !strings.Contains(err.Error(), "-role "+role) {
				t.Errorf("-role %s %s: err = %v, want one naming -%s and -role %s", role, fl.arg, err, fl.name, role)
			}
		}
	}

	// The issue's example: none of these three did anything on a shard.
	_, err := parseFlags([]string{"-role", "shard", "-data", "d", "-profile-dir", "/x", "-brownout=false"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-profile-dir") || !strings.Contains(err.Error(), "-brownout") {
		t.Errorf("shard with -profile-dir -brownout=false: err = %v", err)
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-data", "d", "-ingest-workers", "2"}, "-ingest-workers (without -live)"},
		{[]string{"-data", "d", "-role", "frontend"}, "requires -shards"},
		{[]string{"-data", "d", "-role", "frontend", "-shards", "a,b,c", "-replicas", "2"}, "bad -shards"},
		{[]string{"-data", "d", "-role", "worker"}, "bad -role"},
		{[]string{"-data", "d", "-limit-mode", "gradient"}, "bad -limit-mode"},
		{[]string{"-addr", ":1"}, "-data is required"},
		{[]string{"-data", "d", "extra"}, "unexpected argument"},
	} {
		if _, err := parseFlags(tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}
