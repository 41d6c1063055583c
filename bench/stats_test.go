package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(s, 0.5); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := quantile(s, 0.95); math.Abs(got-9.55) > 1e-12 {
		t.Errorf("p95 of 1..10 = %v, want 9.55", got)
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	// Due at 10 ms, both connections busy until 40 ms, sent at once, done at
	// 45 ms: 35 ms of latency, none of it the generator's.
	s := openLoopSample{Due: 10 * time.Millisecond, Free: 40 * time.Millisecond,
		Sent: 40 * time.Millisecond, Done: 45 * time.Millisecond}
	if s.Latency() != 35*time.Millisecond || s.Lateness() != 0 {
		t.Errorf("busy connections: latency %v lateness %v, want 35ms and 0", s.Latency(), s.Lateness())
	}
	// A free connection but a send 3 ms after the due time: the generator's.
	s = openLoopSample{Due: 10 * time.Millisecond, Free: 2 * time.Millisecond,
		Sent: 13 * time.Millisecond, Done: 14 * time.Millisecond}
	if s.Latency() != 4*time.Millisecond || s.Lateness() != 3*time.Millisecond {
		t.Errorf("late generator: latency %v lateness %v, want 4ms and 3ms", s.Latency(), s.Lateness())
	}
}

// A server that stalls once must show in the latency of every request that
// was due during the stall, not only in the one it held.
func TestOpenLoopChargesAStallToQueuedRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= maxConns {
			time.Sleep(stall) // the first request on each connection
		}
		w.Write([]byte("{}")) //nolint:errcheck // test server
	}))
	defer srv.Close()
	f := &fleet{base: srv.URL, client: newClient()}
	due := []float64{0, 0.001, 0.010, 0.020, 0.030}
	calls := make([]call, len(due))
	for i := range calls {
		calls[i] = call{Kind: kindHit, URL: "/"}
	}
	w := openLoop(f, due, calls)
	if len(w.Open) != len(due) || w.okCount() != len(due) {
		t.Fatalf("%d samples, %d ok, want %d", len(w.Open), w.okCount(), len(due))
	}
	for _, s := range w.Open {
		// Everything was due within 30 ms of the start and nothing could
		// finish before the stall ended.
		if s.Latency() < stall-35*time.Millisecond {
			t.Errorf("request due at %v reports %v, less than the stall it sat behind", s.Due, s.Latency())
		}
		if s.Lateness() > 20*time.Millisecond {
			t.Errorf("request due at %v blames the generator for %v", s.Due, s.Lateness())
		}
	}
}

func TestProcReaders(t *testing.T) {
	// A command name with spaces and a parenthesis, as the kernel prints it.
	stat := "4242 (q serve) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 9 0 12345 1000000 500 18446744073709551615"
	cpu, err := parseProcStat(stat)
	if err != nil || cpu != 3*time.Second {
		t.Errorf("parseProcStat = %v, %v; want 3s (250+50 ticks)", cpu, err)
	}
	if _, err := parseProcStat("no command field"); err == nil {
		t.Error("parseProcStat accepted text without a command field")
	}
	hwm, err := parseVmHWM("Name:\tqserve\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n")
	if err != nil || hwm != 123456 {
		t.Errorf("parseVmHWM = %v, %v; want 123456", hwm, err)
	}
	if _, err := parseVmHWM("Name:\tqserve\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
	self, err := readProc(os.Getpid())
	if err != nil || self.HWMKB <= 0 {
		t.Errorf("readProc(self) = %+v, %v", self, err)
	}
}
