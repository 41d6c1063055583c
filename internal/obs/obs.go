// Package obs is the zero-dependency observability substrate: a metrics
// registry (counters, gauges, latency histograms binned by the
// internal/histogram machinery), a lightweight query-stage span tracer
// with cross-process propagation, a bounded slow-query log, and a
// structured JSON-lines logger.
//
// The paper's evaluation hinges on per-stage timing evidence — index
// evaluation vs. raw scan, conditional-histogram computation, and I/O
// measured across nodes (Sections V–VI). This package is how the serving
// stack produces that evidence continuously: every layer registers its
// instruments here, every request carries a span tree through the stack
// (including across cluster RPC boundaries), and the results surface at
// GET /metrics (Prometheus text format), inside /v1/stats (JSON), and at
// /v1/debug/slow (completed traces over a threshold).
//
// Design constraints:
//
//   - No third-party dependencies: Prometheus exposition is hand-written
//     text format; latency histograms reuse internal/histogram's Locator.
//   - Near-zero overhead when idle: counters are single atomics; spans
//     are created only when a trace rides the context; SetEnabled(false)
//     turns tracing and histogram observation into a single atomic load.
//   - Safe for concurrent use throughout.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
)

// enabled gates tracing and histogram observation. Counters and gauges
// stay live regardless, because legacy stats surfaces are backed by them.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled switches tracing and latency-histogram observation on or
// off globally. Off approximates a no-op-obs build for overhead
// measurement: NewTrace returns nil (so no spans are allocated anywhere)
// and Histogram.Observe returns after one atomic load.
func SetEnabled(v bool) { enabled.Store(v) }

// NewTraceID returns a fresh 16-hex-digit trace identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to a
		// constant rather than panic in an observability path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
