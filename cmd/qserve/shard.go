// Shard-worker role: instead of the HTTP query surface, the process
// serves plan fragments over net/rpc — the executor half of the
// planner/executor split. Frontends (qserve -role frontend) scatter
// row-range fragments here and merge the mergeable partials.
//
//	qserve -role shard -data /tmp/lwfa -rpc-addr :7071
//	qserve -role shard -data /tmp/lwfa -rpc-addr :7072
//	qserve -role frontend -data /tmp/lwfa -shards 127.0.0.1:7071,127.0.0.1:7072
package main

import (
	"context"
	"fmt"
	"net"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// shardGroups splits a flat worker address list into per-shard replica
// groups of size replicas, in order: with -replicas 2, addresses
// a,b,c,d become shard 0 = {a,b}, shard 1 = {c,d}.
func shardGroups(addrs []string, replicas int) ([][]string, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("replicas must be >= 1, got %d", replicas)
	}
	if len(addrs) == 0 || len(addrs)%replicas != 0 {
		return nil, fmt.Errorf("%d addresses do not divide into replica groups of %d", len(addrs), replicas)
	}
	groups := make([][]string, 0, len(addrs)/replicas)
	for i := 0; i < len(addrs); i += replicas {
		groups = append(groups, addrs[i:i+replicas])
	}
	return groups, nil
}

// shardAdmit adapts a serve.Gate into the shard service's admission hook,
// so fragment RPCs queue and shed under the same adaptive limiter the
// HTTP layer uses. Every fragment passes it: a shard answers none from
// storage.
func shardAdmit(gate *serve.Gate) shard.AdmitFunc {
	return func(ctx context.Context) (func(), error) { return gate.Admit(ctx, serve.ClassDrill) }
}

// runShard serves the shard-worker role until SIGTERM/SIGINT. The gate in
// front of the fragment RPCs and the admin listener are the ones the HTTP
// roles use.
func runShard(logger *obs.Logger, fatal func(string, ...any), set *settings) {
	ex := shard.NewExecutor(shard.FragCacheBytes)
	defer ex.Close()
	for _, spec := range set.datas {
		name, d := splitDataSpec(spec)
		if err := ex.AddDataset(name, d); err != nil {
			fatal("add dataset", "name", name, "dir", d, "err", err)
		}
		logger.Info("shard dataset", "name", name, "dir", d)
	}

	gate := serve.NewGate(set.serve.GateConfig())
	srv, err := shard.NewServer(shard.NewService(ex, shardAdmit(gate)))
	if err != nil {
		fatal("shard server", "err", err)
	}
	l, err := net.Listen("tcp", set.rpcAddr)
	if err != nil {
		fatal("rpc listen", "addr", set.rpcAddr, "err", err)
	}
	fmt.Printf("qserve: shard rpc on %s\n", l.Addr())
	srv.Serve(l)
	serveAdmin(logger, fatal, set.adminAddr, obs.Handler(obs.Default()), nil)

	<-shutdownSignal()
	logger.Info("shard shutting down")
	srv.Close()
}
