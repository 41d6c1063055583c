package cluster

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/faultnet"
)

// faultyCluster starts three workers: worker 0 clean, worker 1 behind a
// fault injector, worker 2 behind a latency injector whose Kill method
// simulates the node dying. It returns the addresses and worker 2's
// listener (for killing).
func faultyCluster(t *testing.T, w1cfg faultnet.Config) (addrs []string, victim *faultnet.Listener) {
	t.Helper()
	wraps := []func(net.Listener) net.Listener{
		nil,
		func(l net.Listener) net.Listener {
			fl := faultnet.Wrap(l, w1cfg)
			t.Cleanup(fl.Kill)
			return fl
		},
		func(l net.Listener) net.Listener {
			// Injected latency keeps worker 2's calls in flight long
			// enough that killing it mid-call is deterministic.
			victim = faultnet.Wrap(l, faultnet.Config{Seed: 2, Latency: 10 * time.Millisecond})
			t.Cleanup(victim.Kill)
			return victim
		},
	}
	for _, wrap := range wraps {
		addr, _ := startWorker(t, wrap)
		addrs = append(addrs, addr)
	}
	return addrs, victim
}

// echoAll issues n concurrent Echo calls through CallOn, call i against
// primary i (ring order) carrying value i, and returns the per-call
// errors after checking every successful reply echoes its own value.
func echoAll(t *testing.T, ctx context.Context, p *Pool, n int) []error {
	t.Helper()
	errs := make([]error, n)
	replies := make([]EchoReply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.CallOn(ctx, i, "Echo.Echo", &EchoArgs{V: i}, &replies[i], 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil && replies[i].V != i {
			t.Errorf("call %d: reply %d — a losing or late attempt leaked into the wrong reply", i, replies[i].V)
		}
	}
	return errs
}

// TestFaultyCallOnFailover is the acceptance scenario: 20 concurrent calls
// all complete with correct replies while worker 2 is killed with calls in
// flight and worker 1 suffers 20% injected call failures.
func TestFaultyCallOnFailover(t *testing.T) {
	addrs, victim := faultyCluster(t, faultnet.Config{Seed: 11, ErrProb: 0.2})

	// The short CallTimeout matters: worker 1's injected write errors make
	// the server drop responses while leaving the conn open, so only the
	// per-call deadline rescues those calls.
	cfg := PoolConfig{
		CallTimeout:   500 * time.Millisecond,
		MaxRetries:    3,
		BackoffBase:   2 * time.Millisecond,
		BackoffMax:    30 * time.Millisecond,
		MaxFailovers:  -1,
		ProbeInterval: 50 * time.Millisecond,
		Seed:          1,
	}
	pool, err := DialConfig(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	kill := time.AfterFunc(10*time.Millisecond, victim.Kill)
	defer kill.Stop()
	for i, err := range echoAll(t, context.Background(), pool, 20) {
		if err != nil {
			t.Fatalf("call %d failed despite failover: %v", i, err)
		}
	}
	if st := pool.Stats(); st.Failovers == 0 {
		t.Fatalf("expected failovers after killing a worker mid-call; stats = %+v", st)
	}
	if !victim.Stats().Killed {
		t.Fatal("victim was never killed")
	}
}

// TestFaultyCallOnNoFailover runs the same scenario with failover
// disabled: calls whose primary is the dead worker must fail with an
// error, every other call must still answer correctly.
func TestFaultyCallOnNoFailover(t *testing.T) {
	addrs, victim := faultyCluster(t, faultnet.Config{Seed: 11, ErrProb: 0.2})

	cfg := PoolConfig{
		CallTimeout:  500 * time.Millisecond,
		MaxRetries:   2,
		BackoffBase:  2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		MaxFailovers: 0, // no failover: the dead worker's calls must fail
		Seed:         1,
	}
	pool, err := DialConfig(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	kill := time.AfterFunc(10*time.Millisecond, victim.Kill)
	defer kill.Stop()
	failed := 0
	for i, err := range echoAll(t, context.Background(), pool, 21) {
		if err == nil {
			continue
		}
		if i%3 == 0 {
			t.Fatalf("call %d, homed on the clean worker, failed: %v", i, err)
		}
		failed++
	}
	if failed == 0 || failed >= 21 {
		t.Fatalf("unexpected failure shape: %d/21 failed", failed)
	}
	if st := pool.Stats(); st.Failovers != 0 {
		t.Fatalf("failovers = %d with MaxFailovers=0", st.Failovers)
	}
}

// TestCallOnFatalNotRetried: an error the server classifies fatal (a bad
// request fails the same way on every replica) must come back at once,
// without burning retries or failovers.
func TestCallOnFatalNotRetried(t *testing.T) {
	addrs, _ := startKillableWorkers(t, 2)
	pool, err := DialConfig(addrs, callOnConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var reply EchoReply
	err = pool.CallOn(context.Background(), 0, "Echo.Echo", &EchoArgs{Fatal: true}, &reply, 0)
	if err == nil {
		t.Fatal("fatal echo returned nil error")
	}
	if st := pool.Stats(); st.Retries != 0 || st.Failovers != 0 || st.Calls != 1 {
		t.Fatalf("fatal call was retried or failed over: %+v", st)
	}
	if pool.HealthyNodes() != 2 {
		t.Fatal("a fatal reply marked its worker unhealthy")
	}
}

func TestCallOnAgainstShutDownWorkers(t *testing.T) {
	addrs, kill := startKillableWorkers(t, 2)
	cfg := callOnConfig()
	cfg.CallTimeout = 2 * time.Second
	pool, err := DialConfig(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for _, k := range kill {
		k()
		k() // Server.Close is idempotent
	}
	var reply PingReply
	if err := pool.CallOn(context.Background(), 0, "Worker.Ping", &PingArgs{}, &reply, 0); err == nil {
		t.Fatal("call against shut-down workers succeeded")
	}
	if pool.HealthyNodes() != 0 {
		t.Fatalf("healthy nodes = %d after total outage", pool.HealthyNodes())
	}
}

func TestDialNeverStartedWorker(t *testing.T) {
	if _, err := DialConfig([]string{"127.0.0.1:1"}, DefaultPoolConfig()); err == nil {
		t.Fatal("dial to never-started worker succeeded")
	}
	if _, err := DialConfig(nil, DefaultPoolConfig()); err == nil {
		t.Fatal("empty address list accepted")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	addrs, _ := startKillableWorkers(t, 1)
	pool, err := DialConfig(addrs, DefaultPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	pool.Close() // must not panic or double-close
}

func TestServerCloseClosesServedConns(t *testing.T) {
	addr, srv := startWorker(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	srv.Close()
	// The served connection must be closed by Close, not leaked: a read
	// finishes promptly instead of blocking forever.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("read returned data after Close")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("served connection leaked: still open after Close")
	}
}

func TestProbeRecoversWorker(t *testing.T) {
	addrs, _ := startKillableWorkers(t, 2)
	cfg := DefaultPoolConfig()
	cfg.ProbeInterval = 10 * time.Millisecond
	pool, err := DialConfig(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	pool.Callers()[0].SetHealthy(false)
	if pool.HealthyNodes() != 1 {
		t.Fatalf("healthy = %d", pool.HealthyNodes())
	}
	deadline := time.Now().Add(3 * time.Second)
	for pool.HealthyNodes() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never probed back to health: stats = %+v", pool.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := pool.Stats()
	if st.Probes == 0 || st.Recoveries == 0 {
		t.Fatalf("probe counters not recorded: %+v", st)
	}
}

func TestCallerTimeout(t *testing.T) {
	// A listener that accepts but never replies: calls must time out.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c := newCaller(l.Addr().String(), CallerConfig{
		Timeout:     30 * time.Millisecond,
		MaxRetries:  1,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}, newLockedRand(1))
	defer c.Close()
	var reply PingReply
	cs, err := c.CallWithStatsCtx(context.Background(), "Worker.Ping", &PingArgs{}, &reply)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if cs.Attempts != 2 || cs.Timeouts != 2 {
		t.Fatalf("stats = %+v", cs)
	}
}

func TestCallerClosed(t *testing.T) {
	c := newCaller("127.0.0.1:1", CallerConfig{}, newLockedRand(1))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if _, err := c.CallWithStatsCtx(context.Background(), "Worker.Ping", &PingArgs{}, &PingReply{}); !errors.Is(err, ErrCallerClosed) {
		t.Fatalf("err = %v, want ErrCallerClosed", err)
	}
}

func TestRunBoundsGoroutines(t *testing.T) {
	release := make(chan struct{})
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = Task{Step: i, Run: func() (uint64, int, error) {
			<-release
			return 0, 0, nil
		}}
	}
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := Run(tasks, 4, IOModel{}); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	during := runtime.NumGoroutine()
	close(release)
	<-done
	// A fixed worker pool spawns ~workers+1 goroutines, not one per task.
	if during-before > 16 {
		t.Fatalf("Run spawned %d goroutines for 64 tasks with 4 workers", during-before)
	}
}
