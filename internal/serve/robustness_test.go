package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/plan"
)

// HTTP-facing robustness behaviour: readiness vs liveness, execution
// deadlines, client-cancellation accounting and panic containment.

func TestReadyzFlipsWhileDraining(t *testing.T) {
	s, ts := testServer(t, Config{})
	var body map[string]string
	if code, _ := get(t, ts, "/readyz", &body); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("readyz before drain: %d %v", code, body)
	}
	s.SetDraining(true)
	if code, _ := get(t, ts, "/readyz", &body); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("readyz while draining: %d %v", code, body)
	}
	// Liveness and real work are unaffected by the drain signal: in-flight
	// and straggler requests still complete while the LB moves traffic.
	if code, _ := get(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d", code)
	}
	if code, _ := get(t, ts, "/v1/query?q=px+%3E+0", nil); code != http.StatusOK {
		t.Fatalf("query while draining: %d", code)
	}
	s.SetDraining(false)
	if code, _ := get(t, ts, "/readyz", nil); code != http.StatusOK {
		t.Fatal("readyz did not recover after drain flag cleared")
	}
}

// TestWriteExecErrorMapsStatuses walks every branch of the pipeline's one
// error mapper, wrapped errors included.
func TestWriteExecErrorMapsStatuses(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, tc := range []struct {
		err        error
		want       int
		retryAfter bool
	}{
		{err: errf(http.StatusConflict, "stale"), want: http.StatusConflict},
		{err: fmt.Errorf("step 3: %w", errf(http.StatusRequestEntityTooLarge, "too big")), want: http.StatusRequestEntityTooLarge},
		{err: ErrQueueFull, want: http.StatusTooManyRequests, retryAfter: true},
		{err: ErrQueueTimeout, want: http.StatusServiceUnavailable, retryAfter: true},
		{err: fmt.Errorf("scatter: %w", context.Canceled), want: 499},
		{err: context.DeadlineExceeded, want: http.StatusGatewayTimeout},
		{err: errors.New("backend exploded"), want: http.StatusInternalServerError},
	} {
		rec := httptest.NewRecorder()
		s.writeExecError(rec, ClassSweep, tc.err)
		if rec.Code != tc.want {
			t.Errorf("%v -> %d, want %d", tc.err, rec.Code, tc.want)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("%v: Retry-After present = %v, want %v", tc.err, got, tc.retryAfter)
		}
	}
	if s.canceled.Load() != 1 || s.execTimeouts.Load() != 1 {
		t.Fatalf("counters canceled=%d execTimeouts=%d, want 1/1",
			s.canceled.Load(), s.execTimeouts.Load())
	}
}

func TestPanicRecoveryAnswers500(t *testing.T) {
	s, ts := testServer(t, Config{})
	s.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	var e ErrorBody
	code, _ := get(t, ts, "/boom", &e)
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", code)
	}
	var st StatsBody
	get(t, ts, "/v1/stats", &st)
	if st.Panics != 1 {
		t.Fatalf("panics = %d, want 1", st.Panics)
	}
	// The server survives: the next request is served normally.
	if code, _ := get(t, ts, "/v1/datasets", nil); code != http.StatusOK {
		t.Fatalf("request after panic: %d", code)
	}
}

// TestClientDisconnectCountsCanceled drives a real client disconnect
// through the pipeline: the execution context dies with the connection,
// the op's work stops, and the canceled counter (the 499 path) increments.
func TestClientDisconnectCountsCanceled(t *testing.T) {
	s, ts := testServer(t, Config{})
	entered := make(chan struct{})
	s.mux.HandleFunc("/slow", s.pipelined("slow", func(*http.Request) (*op, *httpError) {
		return &op{class: ClassDrill, exec: func(ctx context.Context) (*plan.Result, error) {
			close(entered)
			<-ctx.Done() // backend work interrupted by the disconnect
			return nil, ctx.Err()
		}}, nil
	}))

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned no error")
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("canceled counter never incremented after client disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}
