// Package session holds analysis sessions as first-class server state:
// named selections over a timestep (a WAH-compressed bitmap plus, once
// tracking is requested, the materialized particle-ID set), refined
// incrementally with bitmap algebra instead of re-evaluating the full
// predicate chain from scratch.
//
// The paper's workflow (Fig. 1) is a session, not a query: brush a region
// in parallel coordinates, refine the condition, trace the selected
// particles across timesteps. The Manager is the bounded, TTL-evicted
// store behind the /v1/session API; it is deliberately HTTP-free so the
// refinement algebra and eviction policy are testable in isolation.
//
// Refinement algebra over a stored selection S and a delta predicate d
// (evaluated alone, one scatter over the shard map):
//
//	refine=and     S' = S ∧ bits(d)    expr' = (expr && d)
//	refine=or      S' = S ∨ bits(d)    expr' = (expr || d)
//	refine=andnot  S' = S ∧ ¬bits(d)   expr' = (expr && !(d))
//
// The canonical effective expression is maintained beside the bitmap so a
// stale selection (its step's catalog generation moved under it) can be
// rebuilt from scratch, and so views and tracking compose with the shard
// tier — shards receive predicate text, never frontend bitmaps.
package session

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitmap"
)

// ErrTooLarge rejects a selection that alone exceeds the manager's byte
// bound: no eviction sequence could make it fit.
var ErrTooLarge = errors.New("session: selection exceeds the session-store byte bound")

// Config parameterises a Manager. Zero values take the documented
// defaults; negative values disable the corresponding bound.
type Config struct {
	// TTL evicts sessions idle longer than this. 0 means 15m.
	TTL time.Duration
	// MaxSessions bounds the session count (LRU-evicted). 0 means 64.
	MaxSessions int
	// MaxBytes bounds the total stored selection bytes across sessions
	// (LRU-evicted). 0 means 64 MiB.
	MaxBytes int64
	// Now is the clock; nil means time.Now. Tests inject a fake.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.TTL == 0 {
		c.TTL = 15 * time.Minute
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 64 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Track is the stored result of following a selection's ID set across
// timesteps: per-step match counts under the canonical `id in (...)`
// predicate. A partial track (a shard lost mid-step) is never stored.
type Track struct {
	Steps  []int
	Counts []uint64
	Expr   string // canonical id-membership predicate
}

// Selection is one named selection inside a session. Bits and IDs are
// shared read-only snapshots: bitmap operations never mutate their
// receiver, and callers must not modify them in place.
type Selection struct {
	Name    string
	Dataset string
	Step    int
	// Gen is the step's catalog generation when the bitmap was built. An
	// ingest or index publish bumps the generation, marking the bitmap
	// stale: the next refinement rebuilds from the effective expression
	// instead of reusing it.
	Gen     uint64
	Backend string
	// Expr is the canonical effective predicate — the whole refinement
	// chain folded into one parseable expression.
	Expr    string
	Bits    *bitmap.Vector
	Count   uint64 // set bits in Bits
	Rows    uint64 // step rows the bitmap spans
	Refines int    // incremental refinements applied so far
	IDs     []int64
	Track   *Track
	Updated time.Time
}

// SizeBytes is the selection's accounted memory: the compressed bitmap,
// the materialized ID set, the stored expressions and the track counts.
func (sel *Selection) SizeBytes() int64 {
	n := int64(len(sel.Name) + len(sel.Expr) + len(sel.Dataset) + len(sel.Backend))
	if sel.Bits != nil {
		n += int64(sel.Bits.SizeBytes())
	}
	n += 8 * int64(len(sel.IDs))
	if sel.Track != nil {
		n += int64(len(sel.Track.Expr)) + 8*int64(len(sel.Track.Steps)) + 8*int64(len(sel.Track.Counts))
	}
	return n
}

// session is the internal mutable record; the public surface hands out
// copies and summaries only.
type session struct {
	id         string
	created    time.Time
	lastUsed   time.Time
	selections map[string]*Selection
	bytes      int64
}

func (s *session) resize() {
	s.bytes = 0
	for _, sel := range s.selections {
		s.bytes += sel.SizeBytes()
	}
}

// SelectionInfo summarizes one selection for listings.
type SelectionInfo struct {
	Name      string    `json:"name"`
	Dataset   string    `json:"dataset"`
	Step      int       `json:"step"`
	Backend   string    `json:"backend"`
	Expr      string    `json:"expr"`
	Count     uint64    `json:"count"`
	Rows      uint64    `json:"rows"`
	Refines   int       `json:"refines"`
	TrackedID int       `json:"tracked_ids,omitempty"`
	SizeBytes int64     `json:"size_bytes"`
	Updated   time.Time `json:"updated"`
}

// Info summarizes one session for listings and /v1/stats.
type Info struct {
	ID         string          `json:"id"`
	Created    time.Time       `json:"created"`
	LastUsed   time.Time       `json:"last_used"`
	Bytes      int64           `json:"bytes"`
	Selections []SelectionInfo `json:"selections"`
}

// Stats is the manager's observable state: the session_* metric sources
// and the /v1/stats block.
type Stats struct {
	Active      int    `json:"active"`
	Selections  int    `json:"selections"`
	Bytes       int64  `json:"bytes"`
	Creates     uint64 `json:"creates"`
	RefineReuse uint64 `json:"refine_reuse"`
	// RefineScratch counts refinements that could not reuse the stored
	// bitmap (stale generation, missing selection) and rebuilt instead.
	RefineScratch  uint64 `json:"refine_scratch"`
	TTLEvictions   uint64 `json:"ttl_evictions"`
	CountEvictions uint64 `json:"count_evictions"`
	BytesEvictions uint64 `json:"bytes_evictions"`
	PartialRejects uint64 `json:"partial_rejects"`
}

// Manager is the bounded session store. All methods are safe for
// concurrent use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	order    []string // session IDs, least recently used first
	bytes    int64

	creates, reuse, scratch         uint64
	evictTTL, evictCount, evictSize uint64
	partialRejects                  uint64
}

// NewManager creates a Manager with the given bounds.
func NewManager(cfg Config) *Manager {
	return &Manager{cfg: cfg.withDefaults(), sessions: map[string]*session{}}
}

// NewID returns a fresh random session ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("session: rand: %v", err)) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// touchLocked moves id to the most-recently-used end of the order.
func (m *Manager) touchLocked(id string) {
	for i, v := range m.order {
		if v == id {
			m.order = append(append(m.order[:i:i], m.order[i+1:]...), id)
			return
		}
	}
	m.order = append(m.order, id)
}

func (m *Manager) dropLocked(id string) {
	s, ok := m.sessions[id]
	if !ok {
		return
	}
	m.bytes -= s.bytes
	delete(m.sessions, id)
	for i, v := range m.order {
		if v == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// sweepLocked applies the TTL bound. keep is exempt (the session being
// actively used can never be idle).
func (m *Manager) sweepLocked(now time.Time, keep string) {
	if m.cfg.TTL < 0 {
		return
	}
	for id, s := range m.sessions {
		if id != keep && now.Sub(s.lastUsed) > m.cfg.TTL {
			m.dropLocked(id)
			m.evictTTL++
		}
	}
}

// evictLocked enforces the count and byte bounds by evicting the least
// recently used sessions, never the one named keep.
func (m *Manager) evictLocked(keep string) {
	evictOne := func() bool {
		for _, id := range m.order {
			if id != keep {
				m.dropLocked(id)
				return true
			}
		}
		return false
	}
	if m.cfg.MaxSessions > 0 {
		for len(m.sessions) > m.cfg.MaxSessions {
			if !evictOne() {
				break
			}
			m.evictCount++
		}
	}
	if m.cfg.MaxBytes > 0 {
		for m.bytes > m.cfg.MaxBytes {
			if !evictOne() {
				break
			}
			m.evictSize++
		}
	}
}

// Create registers a new session under a fresh random ID and returns it.
func (m *Manager) Create() Info {
	id := NewID()
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(now, id)
	m.sessions[id] = &session{id: id, created: now, lastUsed: now, selections: map[string]*Selection{}}
	m.creates++
	m.touchLocked(id)
	m.evictLocked(id)
	return Info{ID: id, Created: now, LastUsed: now}
}

// ensureLocked returns the session, creating it when absent (sessions are
// created on first use so clients may choose their own IDs).
func (m *Manager) ensureLocked(id string, now time.Time) *session {
	s, ok := m.sessions[id]
	if !ok {
		s = &session{id: id, created: now, selections: map[string]*Selection{}}
		m.sessions[id] = s
		m.creates++
	}
	s.lastUsed = now
	m.touchLocked(id)
	return s
}

// Selection returns a shallow copy of the named selection. The returned
// Bits and IDs are shared read-only snapshots.
func (m *Manager) Selection(sid, name string) (Selection, bool) {
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(now, "")
	s, ok := m.sessions[sid]
	if !ok {
		return Selection{}, false
	}
	sel, ok := s.selections[name]
	if !ok {
		return Selection{}, false
	}
	s.lastUsed = now
	m.touchLocked(sid)
	return *sel, true
}

// Put stores a selection in the session (created on first use), enforcing
// every bound. The stored value is a private copy of sel; a selection too
// large for the byte bound is rejected with ErrTooLarge, never stored.
func (m *Manager) Put(sid string, sel Selection) error {
	sel.Updated = m.cfg.Now()
	if m.cfg.MaxBytes > 0 && sel.SizeBytes() > m.cfg.MaxBytes {
		return fmt.Errorf("%w: %d bytes > bound %d", ErrTooLarge, sel.SizeBytes(), m.cfg.MaxBytes)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(sel.Updated, sid)
	s := m.ensureLocked(sid, sel.Updated)
	m.bytes -= s.bytes
	s.selections[sel.Name] = &sel
	s.resize()
	m.bytes += s.bytes
	m.evictLocked(sid)
	return nil
}

// Delete removes a session, reporting whether it existed.
func (m *Manager) Delete(sid string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.sessions[sid]
	m.dropLocked(sid)
	return ok
}

// Get summarizes one session.
func (m *Manager) Get(sid string) (Info, bool) {
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(now, "")
	s, ok := m.sessions[sid]
	if !ok {
		return Info{}, false
	}
	return m.infoLocked(s), true
}

// List summarizes every live session, most recently used first.
func (m *Manager) List() []Info {
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(now, "")
	out := make([]Info, 0, len(m.sessions))
	for i := len(m.order) - 1; i >= 0; i-- {
		if s, ok := m.sessions[m.order[i]]; ok {
			out = append(out, m.infoLocked(s))
		}
	}
	return out
}

func (m *Manager) infoLocked(s *session) Info {
	info := Info{ID: s.id, Created: s.created, LastUsed: s.lastUsed, Bytes: s.bytes}
	for _, sel := range s.selections {
		info.Selections = append(info.Selections, SelectionInfo{
			Name: sel.Name, Dataset: sel.Dataset, Step: sel.Step,
			Backend: sel.Backend, Expr: sel.Expr,
			Count: sel.Count, Rows: sel.Rows, Refines: sel.Refines,
			TrackedID: len(sel.IDs), SizeBytes: sel.SizeBytes(),
			Updated: sel.Updated,
		})
	}
	return info
}

// NoteReuse counts one incremental refinement that reused the stored
// bitmap — the session_refine_reuse_total source.
func (m *Manager) NoteReuse() {
	m.mu.Lock()
	m.reuse++
	m.mu.Unlock()
}

// NoteScratch counts one refinement that had to rebuild from scratch.
func (m *Manager) NoteScratch() {
	m.mu.Lock()
	m.scratch++
	m.mu.Unlock()
}

// NotePartialReject counts one selection or track result refused storage
// because it was merged without every shard.
func (m *Manager) NotePartialReject() {
	m.mu.Lock()
	m.partialRejects++
	m.mu.Unlock()
}

// Stats snapshots the manager's observable state.
func (m *Manager) Stats() Stats {
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweepLocked(now, "")
	st := Stats{
		Active: len(m.sessions), Bytes: m.bytes,
		Creates: m.creates, RefineReuse: m.reuse, RefineScratch: m.scratch,
		TTLEvictions: m.evictTTL, CountEvictions: m.evictCount,
		BytesEvictions: m.evictSize, PartialRejects: m.partialRejects,
	}
	for _, s := range m.sessions {
		st.Selections += len(s.selections)
	}
	return st
}

// Combine applies one refinement-algebra step: the stored bitmap against
// the delta bitmap under the given mode ("and", "or", "andnot"). Both are
// decoded into sets as long as the longer, combined in place and the
// result encoded once.
func Combine(prev, delta *bitmap.Vector, mode string) (*bitmap.Vector, error) {
	n := max(prev.Len(), delta.Len())
	s, d := bitmap.NewBitSet(n), bitmap.NewBitSet(n)
	prev.OrInto(s, 0, n)
	delta.OrInto(d, 0, n)
	switch mode {
	case "and":
		s.AndWith(d)
	case "or":
		s.OrWith(d)
	case "andnot":
		d.Invert()
		s.AndWith(d)
	default:
		return nil, fmt.Errorf("session: unknown refine mode %q (and | or | andnot)", mode)
	}
	return s.ToVector(), nil
}
