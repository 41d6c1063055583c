package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fastquery"
	"repro/internal/obs"
	"repro/internal/plan"
)

// budgetSlack is the deadline headroom the scatter client reserves per
// fragment dispatch: time for the RPC round trip plus the frontend's
// merge and serialization, so a budget-exhausted shard still settles into
// a marked-partial response before the request deadline fires a 504.
const budgetSlack = 25 * time.Millisecond

// Client is the frontend's scatter client: one cluster pool per shard,
// each pool holding that shard's replicas with the usual retry/backoff,
// health probing, and ring failover. It implements plan.Runner.
type Client struct {
	pools []*cluster.Pool
	hedge time.Duration
}

// DialShards connects to every shard's replica group. shards[i] lists the
// replica addresses of shard i. hedge > 0 enables staggered hedged
// dispatch across a shard's replicas: if the first replica has not
// answered within the stagger, the next one is raced against it. When the
// config enables a retry budget without supplying a shared bucket, one
// bucket is created here and shared across every shard pool, so the
// budget is global to the frontend rather than per shard.
func DialShards(shards [][]string, cfg cluster.PoolConfig, hedge time.Duration) (*Client, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: no shards")
	}
	if cfg.RetryBudget == nil && cfg.RetryBudgetRatio > 0 {
		cfg.RetryBudget = cluster.NewRetryBudget(cfg.RetryBudgetRatio)
	}
	c := &Client{hedge: hedge}
	for i, addrs := range shards {
		p, err := cluster.DialConfig(addrs, cfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard: dial shard %d: %w", i, err)
		}
		c.pools = append(c.pools, p)
	}
	return c, nil
}

// Shards returns the number of shards.
func (c *Client) Shards() int { return len(c.pools) }

// RunFragment sends one fragment to a shard, first-healthy replica first
// (a stable choice, so the primary replica's handoff store and resident
// index windows stay hot),
// hedging per the client's stagger. The shard-side span tree is attached
// under the caller's fragment span.
func (c *Client) RunFragment(ctx context.Context, shard int, f plan.Fragment) (*plan.FragmentResult, error) {
	if shard < 0 || shard >= len(c.pools) {
		return nil, fmt.Errorf("shard: shard %d out of range [0,%d)", shard, len(c.pools))
	}
	// When the request is being profiled, ask the worker for a fragment
	// profile and collect it (or a synthesized one for refusals and
	// transport failures) so the explain surface accounts for every
	// fragment the plan attempted.
	profile := plan.ProfileFromContext(ctx)
	fail := func(err error) {
		if profile == nil {
			return
		}
		fp := plan.NewFragProfile(shard, f)
		fp.Done(obs.CostSnapshot{}, 0, err)
		profile.Add(fp)
	}
	args := &ExecArgs{Frag: f, TraceID: obs.SpanFromContext(ctx).TraceID(), Profile: profile != nil}
	callCtx := ctx
	if dl, ok := ctx.Deadline(); ok {
		// Carve this fragment's sub-budget from the request deadline: the
		// time left minus the slack reserved for the round trip and the
		// frontend's merge. A fragment that cannot fit is refused without
		// an RPC, and the sub-budget rides in ExecArgs so the shard sheds
		// the work the moment it can no longer finish in time.
		budget := time.Until(dl) - budgetSlack
		if budget <= 0 {
			metricBudgetSkips.Inc()
			err := fastquery.Exhaustedf("shard %d: %v of deadline budget left, slack %v",
				shard, time.Until(dl).Round(time.Millisecond), budgetSlack)
			fail(err)
			return nil, err
		}
		args.BudgetMS = int64(budget / time.Millisecond)
		if args.BudgetMS == 0 {
			args.BudgetMS = 1
		}
		var cancel context.CancelFunc
		callCtx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	var reply ExecReply
	err := c.pools[shard].CallOn(callCtx, 0, "Shard.Exec", args, &reply, c.hedge)
	obs.SpanFromContext(ctx).AttachRemote(reply.Trace)
	if err != nil {
		if callCtx != ctx && callCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			// The sub-budget expired while the request itself is still
			// alive (a stalled or partitioned replica ate it): settle as
			// budget exhaustion now, slack ahead of the request deadline,
			// so the planner merges a marked partial instead of a 504.
			metricBudgetSkips.Inc()
			err = fastquery.Exhausted(err)
			fail(err)
			return nil, err
		}
		fail(err)
		return nil, err
	}
	if reply.Result == nil || profile != nil && reply.Prof == nil {
		err := fmt.Errorf("shard: shard %d returned no result or no profile", shard)
		fail(err)
		return nil, err
	}
	if profile != nil {
		reply.Prof.Shard = shard
		profile.Add(*reply.Prof)
	}
	return reply.Result, nil
}

// ReplicaStatus is one replica's client-side view: address, health flag,
// and circuit-breaker state ("closed", "half-open", "open").
type ReplicaStatus struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker"`
}

// ShardStatus is one shard's view in a fleet stats snapshot.
type ShardStatus struct {
	Shard        int             `json:"shard"`
	Replicas     int             `json:"replicas"`
	Healthy      int             `json:"healthy"`
	Err          string          `json:"err,omitempty"` // stats RPC failure
	Stats        ExecStats       `json:"stats"`
	ReplicaState []ReplicaStatus `json:"replica_state,omitempty"`
}

// Stats gathers every shard's executor snapshot plus the frontend-side
// replica health and breaker states, the client-side ones taken before
// the poll.
func (c *Client) Stats(ctx context.Context, timeout time.Duration) []ShardStatus {
	out := make([]ShardStatus, len(c.pools))
	for i, p := range c.pools {
		out[i] = ShardStatus{
			Shard:        i,
			Replicas:     p.Nodes(),
			Healthy:      p.HealthyNodes(),
			ReplicaState: replicaStates(p),
		}
	}
	replies, errs := poll[StatsReply](ctx, c.pools, timeout, "Shard.Stats", &StatsArgs{})
	for i := range out {
		out[i].Stats, out[i].Err = replies[i].Stats, errs[i]
	}
	return out
}

// ReplicaStates returns every shard's client-side replica view (address,
// health, breaker state) without any RPC — the failover context the
// explain surface attaches to a profiled query.
func (c *Client) ReplicaStates() [][]ReplicaStatus {
	out := make([][]ReplicaStatus, len(c.pools))
	for i, p := range c.pools {
		out[i] = replicaStates(p)
	}
	return out
}

// replicaStates is one shard's replica view.
func replicaStates(p *cluster.Pool) []ReplicaStatus {
	var out []ReplicaStatus
	for _, cl := range p.Callers() {
		out = append(out, ReplicaStatus{
			Addr:    cl.Addr(),
			Healthy: cl.Healthy(),
			Breaker: cl.BreakerState().String(),
		})
	}
	return out
}

// poll calls method on every shard's first replica and returns each
// shard's reply and, when its call failed, the error as a string (with a
// zero reply). The shards are polled concurrently, each under its own
// timeout, so a dead fleet costs one timeout rather than shards×timeout.
func poll[R any](ctx context.Context, pools []*cluster.Pool, timeout time.Duration, method string, args any) ([]R, []string) {
	replies, errs := make([]R, len(pools)), make([]string, len(pools))
	var wg sync.WaitGroup
	for i, p := range pools {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			if err := p.CallOn(sctx, 0, method, args, &replies[i], 0); err != nil {
				var zero R
				replies[i], errs[i] = zero, err.Error()
			}
		}()
	}
	wg.Wait()
	return replies, errs
}

// ShardMetrics is one shard worker's metrics snapshot (or the reason it
// could not be scraped) in a federated poll.
type ShardMetrics struct {
	Shard   int
	Err     string
	Metrics []obs.Metric
}

// Metrics polls every shard worker's metrics registry over RPC for the
// frontend's federated /metrics exposition. A shard that cannot be
// reached contributes an error marker instead of failing the scrape.
func (c *Client) Metrics(ctx context.Context, timeout time.Duration) []ShardMetrics {
	replies, errs := poll[MetricsReply](ctx, c.pools, timeout, "Shard.Metrics", &MetricsArgs{})
	out := make([]ShardMetrics, len(c.pools))
	for i := range out {
		out[i] = ShardMetrics{Shard: i, Err: errs[i], Metrics: replies[i].Metrics}
	}
	return out
}

// Close closes every shard pool.
func (c *Client) Close() {
	for _, p := range c.pools {
		p.Close()
	}
}
