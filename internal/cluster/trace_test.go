package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster/faultnet"
	"repro/internal/obs"
)

// tracedCalls runs a round of concurrent Echo calls under a fresh trace and
// returns the completed span tree.
func tracedCalls(t *testing.T, p *Pool, n int) *obs.SpanData {
	t.Helper()
	tr := obs.NewTrace("", "request")
	echoAll(t, obs.ContextWithSpan(context.Background(), tr.Root()), p, n)
	tr.Root().End()
	return tr.Data()
}

// TestTraceRetriesAreSiblingSpans verifies that when a flaky worker forces
// retries, each attempt appears as a sibling rpc-attempt span under the
// same rpc-worker span in the originating trace.
func TestTraceRetriesAreSiblingSpans(t *testing.T) {
	addrs, _ := faultyCluster(t, faultnet.Config{Seed: 11, ErrProb: 0.3})

	cfg := DefaultPoolConfig()
	cfg.CallTimeout = 2 * time.Second
	cfg.MaxRetries = 4
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 5 * time.Millisecond
	cfg.ProbeInterval = 0
	p, err := DialConfig(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// The injected 30% call-error rate makes a retry within a few rounds
	// overwhelmingly likely; scan traces until one shows sibling attempts.
	for round := 0; round < 20; round++ {
		d := tracedCalls(t, p, 12)
		var siblings *obs.SpanData
		d.Walk(func(sd *obs.SpanData) {
			if sd.Name != "rpc-worker" {
				return
			}
			attempts := 0
			for _, c := range sd.Children {
				if c.Name == "rpc-attempt" {
					attempts++
				}
			}
			if attempts >= 2 {
				siblings = sd
			}
		})
		if siblings != nil {
			// Attempts must be numbered in order under one worker span.
			first, second := siblings.Children[0], siblings.Children[1]
			if first.Attrs["attempt"] != "1" || second.Attrs["attempt"] != "2" {
				t.Fatalf("sibling attempts mis-numbered: %v, %v", first.Attrs, second.Attrs)
			}
			if first.Attrs["error"] == "" {
				t.Fatal("first of two attempts should carry the error that forced the retry")
			}
			return
		}
		// Workers marked unhealthy mid-round would leave the rotation; reset.
		for _, c := range p.Callers() {
			c.SetHealthy(true)
		}
	}
	t.Fatal("no trace showed sibling rpc-attempt spans after 20 rounds")
}
