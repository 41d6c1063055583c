package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// SlowEntry is one completed over-threshold request kept in the slow log.
// The execution-context fields (Shards onward) distinguish the reasons a
// request can be slow — a marked-partial scatter whose budget ran out is
// a different incident than a clean slow scan, and /v1/debug/slow should
// say which one happened.
type SlowEntry struct {
	Time       time.Time `json:"time"`
	TraceID    string    `json:"trace_id"`
	Endpoint   string    `json:"endpoint"`
	DurationMS float64   `json:"duration_ms"`
	Status     int       `json:"status"`
	Detail     string    `json:"detail,omitempty"`
	Trace      *SpanData `json:"trace,omitempty"`

	Shards          int    `json:"shards,omitempty"`           // scatter fan-out (0 = local)
	Fragments       int    `json:"fragments,omitempty"`        // plan fragments executed
	Partial         bool   `json:"partial,omitempty"`          // merged with failed shards
	Degraded        string `json:"degraded,omitempty"`         // brownout mode served, if any
	BudgetExhausted bool   `json:"budget_exhausted,omitempty"` // deadline budget ran out mid-plan
	CacheSource     string `json:"cache_source,omitempty"`     // result | coalesced | coarse
}

// SlowLog is a bounded in-memory ring of slow-query entries, newest kept.
// It backs GET /v1/debug/slow on the admin surface.
type SlowLog struct {
	mu      sync.Mutex
	max     int
	entries []SlowEntry
	next    int
	full    bool
}

// NewSlowLog creates a slow log retaining at most max entries (max <= 0
// defaults to 128).
func NewSlowLog(max int) *SlowLog {
	if max <= 0 {
		max = 128
	}
	return &SlowLog{max: max, entries: make([]SlowEntry, max)}
}

// Add records one entry, evicting the oldest once the ring is full.
func (l *SlowLog) Add(e SlowEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.entries[l.next] = e
	l.next++
	if l.next == l.max {
		l.next = 0
		l.full = true
	}
	l.mu.Unlock()
}

// Snapshot returns the retained entries, newest first.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = l.max
	}
	out := make([]SlowEntry, 0, n)
	for i := 0; i < n; i++ {
		idx := l.next - 1 - i
		if idx < 0 {
			idx += l.max
		}
		out = append(out, l.entries[idx])
	}
	return out
}

// Len returns the number of retained entries.
func (l *SlowLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.full {
		return l.max
	}
	return l.next
}

// Handler serves the slow log as a JSON array, newest first.
func (l *SlowLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		entries := l.Snapshot()
		if entries == nil {
			entries = []SlowEntry{}
		}
		_ = enc.Encode(entries)
	})
}
