package shard

import (
	"context"
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fastquery"
	"repro/internal/obs"
	"repro/internal/plan"
)

// AdmitFunc is the shard worker's admission hook: it blocks (or sheds)
// under the worker's own adaptive gate and returns a release to call when
// the fragment finishes. It is injected by the process wiring (cmd/qserve
// builds it from a serve.Gate) so this package does not import the serve
// layer. A nil AdmitFunc admits everything.
type AdmitFunc func(ctx context.Context) (release func(), err error)

// ExecArgs asks a shard worker to evaluate one plan fragment. Frag crosses
// the wire as its frame (plan.Fragment's MarshalBinary).
type ExecArgs struct {
	Frag    plan.Fragment
	TraceID string // originating request's trace ID; "" disables tracing
	// BudgetMS is the deadline budget left for this fragment at dispatch,
	// minus the frontend's network slack, in milliseconds. 0 means
	// unbudgeted; negative means the budget was already spent when the
	// fragment was sent. The worker sheds the fragment — in the admission
	// queue or mid-evaluation — once the budget expires, instead of
	// burning capacity on an answer nobody can wait for.
	BudgetMS int64
	// Profile asks the worker to attach a per-fragment execution profile
	// (resource costs, admission wait, budget disposition) to the reply,
	// for the frontend's explain surface.
	Profile bool
}

// ExecReply carries the fragment's mergeable partial result. Result
// crosses the wire as its checksummed frame (plan.FragmentResult's
// MarshalBinary); a frame refused at decode fails the call as a transport
// error, so it is retried or fails over like a dropped connection.
type ExecReply struct {
	Result *plan.FragmentResult
	Trace  *obs.SpanData // shard-side span tree when TraceID was set
	// Prof is the fragment execution profile when Profile was requested.
	// It rides the reply, never the Result: a FragSelect's Result is the
	// stored selection later fragments share, and must not carry this
	// evaluation's cost to them.
	Prof *plan.FragProfile
}

// StatsArgs is the (empty) request of Shard.Stats.
type StatsArgs struct{}

// StatsReply carries one shard's executor snapshot.
type StatsReply struct {
	Stats ExecStats
}

// Service is the RPC receiver a shard worker registers under the "Shard"
// name, next to the standard "Worker" service whose Ping keeps the
// frontend pool's health probing working unchanged.
type Service struct {
	ex    *Executor
	admit AdmitFunc
}

// NewService wraps an executor for RPC serving. admit may be nil.
func NewService(ex *Executor, admit AdmitFunc) *Service {
	return &Service{ex: ex, admit: admit}
}

// shardTrace starts a shard-side trace for a propagated trace ID; its
// snapshot rides back in the reply for the frontend to attach under its
// fragment span. With no trace ID the context is plain and the trace nil;
// finishTrace on a nil trace is a no-op, so Exec calls both unconditionally.
func shardTrace(id, rootName string) (context.Context, *obs.Trace) {
	if id == "" {
		return context.Background(), nil
	}
	tr := obs.NewTrace(id, rootName)
	return obs.ContextWithSpan(context.Background(), tr.Root()), tr
}

func finishTrace(tr *obs.Trace, slot **obs.SpanData) {
	if tr == nil {
		return
	}
	tr.Root().End()
	*slot = tr.Data()
}

// Exec evaluates one fragment under the worker's admission gate and the
// fragment's deadline budget. Panics are turned into errors so a poisoned
// fragment cannot take the whole worker down.
func (s *Service) Exec(args *ExecArgs, reply *ExecReply) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard: exec panic: %v\n%s", r, debug.Stack())
		}
	}()
	ctx, tr := shardTrace(args.TraceID, "shard:"+args.Frag.Op.String())
	defer finishTrace(tr, &reply.Trace)
	if args.BudgetMS < 0 {
		metricBudgetShed.Inc()
		return fastquery.Exhaustedf("shard: fragment arrived with budget already spent (%dms)", args.BudgetMS)
	}
	if args.BudgetMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(args.BudgetMS)*time.Millisecond)
		defer cancel()
	}
	var fp *plan.FragProfile
	if args.Profile {
		p := plan.NewFragProfile(0, args.Frag) // the client fills in the shard
		p.BudgetMS = args.BudgetMS
		fp = &p
	}
	if s.admit != nil {
		waitStart := time.Now()
		release, aerr := s.admit(ctx)
		if fp != nil {
			fp.WaitMS = float64(time.Since(waitStart)) / float64(time.Millisecond)
		}
		if aerr != nil {
			if args.BudgetMS > 0 && ctx.Err() == context.DeadlineExceeded {
				// The budget expired while the fragment waited for a slot.
				metricBudgetShed.Inc()
				return fastquery.Exhausted(aerr)
			}
			return aerr
		}
		defer release()
	}
	var cost *obs.Cost
	if fp != nil {
		cost = &obs.Cost{}
		ctx = obs.WithCost(ctx, cost)
	}
	evalStart := time.Now()
	res, err := s.ex.Run(ctx, args.Frag)
	if fp != nil {
		fp.Done(cost.Snapshot(), time.Since(evalStart), err)
		reply.Prof = fp
	}
	if err != nil {
		if args.BudgetMS > 0 && ctx.Err() == context.DeadlineExceeded {
			// Evaluation outran the budget: the row-checkpointed kernels
			// abort promptly, and the frontend merges a marked partial.
			metricBudgetShed.Inc()
			return fastquery.Exhausted(err)
		}
		return err
	}
	reply.Result = res
	return nil
}

// Stats snapshots the shard's executor counters for the frontend's
// fleet-wide /v1/stats aggregation.
func (s *Service) Stats(args *StatsArgs, reply *StatsReply) error {
	reply.Stats = s.ex.Stats()
	return nil
}

// MetricsArgs is the (empty) request of Shard.Metrics.
type MetricsArgs struct{}

// MetricsReply carries one shard worker's full metrics snapshot for the
// frontend's federated /metrics exposition.
type MetricsReply struct {
	Metrics []obs.Metric
}

// Metrics snapshots the worker's process-wide registry so the frontend
// can expose a fleet-wide federated scrape with shard labels.
func (s *Service) Metrics(args *MetricsArgs, reply *MetricsReply) error {
	reply.Metrics = obs.Default().Snapshot()
	return nil
}

// NewServer builds a cluster RPC server that serves the "Shard" fragment
// service beside the standard "Worker" service (for Ping health probes)
// over the same listeners.
func NewServer(svc *Service) (*cluster.Server, error) {
	srv, err := cluster.NewServer()
	if err != nil {
		return nil, err
	}
	if err := srv.RegisterName("Shard", svc); err != nil {
		return nil, fmt.Errorf("shard: register service: %w", err)
	}
	return srv, nil
}

// StartLocalShards starts n in-process shard workers over the given
// datasets (name -> directory), one replica each, each with a handoff
// store of cacheBytes, and returns the per-shard address groups plus an
// idempotent shutdown, for tests and the benchmark harness.
func StartLocalShards(n int, datasets map[string]string, cacheBytes int) (shards [][]string, shutdown func(), err error) {
	var servers []*cluster.Server
	var executors []*Executor
	var once sync.Once
	closeAll := func() {
		once.Do(func() {
			for _, s := range servers {
				s.Close()
			}
			for _, e := range executors {
				e.Close()
			}
		})
	}
	for i := 0; i < n; i++ {
		ex := NewExecutor(cacheBytes)
		for name, d := range datasets {
			if err := ex.AddDataset(name, d); err != nil {
				closeAll()
				return nil, nil, err
			}
		}
		executors = append(executors, ex)
		srv, err := NewServer(NewService(ex, nil))
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("shard: listen: %w", err)
		}
		servers = append(servers, srv)
		srv.Serve(l)
		shards = append(shards, []string{l.Addr().String()})
	}
	return shards, closeAll, nil
}
