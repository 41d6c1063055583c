package cluster

import (
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster/faultnet"
	"repro/internal/fastquery"
)

// Echo is a test-only RPC service registered beside Worker.Ping on every
// test server: it returns its argument, so concurrent calls can be told
// apart, and fails deterministically on request, so the transport's
// fatal-error classification can be driven without a dataset.
type Echo struct{}

type EchoArgs struct {
	V     int
	Fatal bool // answer with a fastquery.Fatal error
}

type EchoReply struct{ V int }

func (Echo) Echo(args *EchoArgs, reply *EchoReply) error {
	if args.Fatal {
		return fastquery.Fatalf("echo: fatal on request")
	}
	reply.V = args.V
	return nil
}

// startWorker launches one test server (Worker.Ping + Echo.Echo). wrap, if
// non-nil, interposes on the listener the server accepts from (a faultnet
// injector); the returned address is always the real one. The server is
// closed at test cleanup; Close is idempotent, so tests may also kill it.
func startWorker(t *testing.T, wrap func(net.Listener) net.Listener) (addr string, srv *Server) {
	t.Helper()
	srv, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterName("Echo", Echo{}); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveL := l
	if wrap != nil {
		serveL = wrap(l)
	}
	srv.Serve(serveL)
	t.Cleanup(srv.Close)
	return l.Addr().String(), srv
}

// startKillableWorkers launches n workers with individual kill switches,
// for exercising CallOn's failover and hedging against a dead primary.
func startKillableWorkers(t *testing.T, n int) (addrs []string, kill []func()) {
	t.Helper()
	for i := 0; i < n; i++ {
		addr, srv := startWorker(t, nil)
		kill = append(kill, srv.Close)
		addrs = append(addrs, addr)
	}
	return addrs, kill
}

// startLatencyWorker launches a worker, optionally behind injected per-op
// latency, and returns its address.
func startLatencyWorker(t *testing.T, seed int64, lat time.Duration) string {
	t.Helper()
	var wrap func(net.Listener) net.Listener
	if lat > 0 {
		wrap = func(l net.Listener) net.Listener {
			return faultnet.Wrap(l, faultnet.Config{Seed: seed, Latency: lat})
		}
	}
	addr, _ := startWorker(t, wrap)
	return addr
}

func callOnConfig() PoolConfig {
	cfg := DefaultPoolConfig()
	cfg.CallTimeout = 5 * time.Second
	cfg.MaxRetries = 1
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 5 * time.Millisecond
	cfg.ProbeInterval = 0
	return cfg
}

func TestCallOnPing(t *testing.T) {
	addrs, _ := startKillableWorkers(t, 3)
	p, err := DialConfig(addrs, callOnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for primary := 0; primary < 3; primary++ {
		var reply PingReply
		if err := p.CallOn(context.Background(), primary, "Worker.Ping", &PingArgs{}, &reply, 0); err != nil {
			t.Fatalf("primary %d: %v", primary, err)
		}
		if !reply.OK {
			t.Fatalf("primary %d: reply not OK", primary)
		}
	}
}

func TestCallOnFailover(t *testing.T) {
	addrs, kill := startKillableWorkers(t, 3)
	p, err := DialConfig(addrs, callOnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	kill[1]()
	var reply PingReply
	if err := p.CallOn(context.Background(), 1, "Worker.Ping", &PingArgs{}, &reply, 0); err != nil {
		t.Fatalf("failover call: %v", err)
	}
	if !reply.OK {
		t.Fatal("failover reply not OK")
	}
	if st := p.Stats(); st.Failovers == 0 {
		t.Fatalf("stats = %+v, want failovers > 0", st)
	}
}

func TestCallOnHedged(t *testing.T) {
	// Primary behind heavy injected latency — slow, not dead — so the
	// stagger timer fires and launches a hedge that wins the race. (A
	// dead primary fails before the stagger and counts as failover, not
	// a hedge.)
	slow := startLatencyWorker(t, 3, 300*time.Millisecond)
	fast := startLatencyWorker(t, 0, 0)

	p, err := DialConfig([]string{slow, fast}, callOnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	start := time.Now()
	var reply PingReply
	if err := p.CallOn(context.Background(), 0, "Worker.Ping", &PingArgs{}, &reply, 10*time.Millisecond); err != nil {
		t.Fatalf("hedged call: %v", err)
	}
	if !reply.OK {
		t.Fatal("hedged reply not OK")
	}
	if st := p.Stats(); st.Hedges == 0 {
		t.Fatalf("stats = %+v, want hedges > 0", st)
	}
	// The hedge, not the slow primary, must have answered: well under
	// the primary's injected per-op latency.
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("hedged call took %v — the slow primary answered", elapsed)
	}
}

// waitGoroutines fails unless the process goroutine count returns to the
// baseline (plus a little slop for runtime helpers) within the window.
func waitGoroutines(t *testing.T, base int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live, baseline %d, after %v\n%s",
				n, base, within, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCallOnHedgedLoserCancelled: when the hedge wins, the losing attempt
// must be cancelled with the race — its goroutine may not ride out the slow
// worker's latency — and the race counts exactly one hedge.
func TestCallOnHedgedLoserCancelled(t *testing.T) {
	slow := startLatencyWorker(t, 11, 300*time.Millisecond)
	fast := startLatencyWorker(t, 0, 0)

	p, err := DialConfig([]string{slow, fast}, callOnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Warm both connections so the goroutine baseline includes the pool's
	// persistent rpc clients and their server-side handlers.
	for i := 0; i < 2; i++ {
		var reply PingReply
		if err := p.CallOn(context.Background(), i, "Worker.Ping", &PingArgs{}, &reply, 0); err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
	}
	base := runtime.NumGoroutine()
	before := p.Stats()

	start := time.Now()
	var reply PingReply
	if err := p.CallOn(context.Background(), 0, "Worker.Ping", &PingArgs{}, &reply, 10*time.Millisecond); err != nil {
		t.Fatalf("hedged call: %v", err)
	}
	if !reply.OK {
		t.Fatal("hedged reply not OK")
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("hedged call took %v — the slow primary answered", elapsed)
	}
	if d := p.Stats().Hedges - before.Hedges; d != 1 {
		t.Fatalf("hedges delta = %d, want exactly 1 (no double count)", d)
	}
	// The loser must exit promptly once the winner's cancel fires, not
	// after the slow worker's full injected latency settles naturally.
	waitGoroutines(t, base, 3*time.Second)
}

// TestCallOnHedgedCallerCancel: cancelling the caller's context mid-hedge
// must propagate to both in-flight attempts — the call returns promptly and
// neither attempt goroutine leaks.
func TestCallOnHedgedCallerCancel(t *testing.T) {
	a := startLatencyWorker(t, 21, 400*time.Millisecond)
	b := startLatencyWorker(t, 22, 400*time.Millisecond)

	p, err := DialConfig([]string{a, b}, callOnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < 2; i++ {
		var reply PingReply
		if err := p.CallOn(context.Background(), i, "Worker.Ping", &PingArgs{}, &reply, 0); err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	var reply PingReply
	err = p.CallOn(ctx, 0, "Worker.Ping", &PingArgs{}, &reply, 10*time.Millisecond)
	if err == nil {
		t.Fatal("cancelled hedged call reported success")
	}
	// Both workers sit behind 400ms-per-op latency; a prompt return proves
	// the cancel cut through rather than waiting out either attempt.
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("cancelled hedged call took %v, want prompt return", elapsed)
	}
	waitGoroutines(t, base, 3*time.Second)
}
