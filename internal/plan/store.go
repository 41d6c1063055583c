package plan

import "sync"

// probationShare is the part of a Store's budget its probation segment
// may hold: an eighth. That keeps what its two users need between
// requests — dash_hot's whole panel set is 60 answers, 4.33 MB, and a
// shard's two-phase handoff is at most about 1 MB a request (Sel's 8 B a
// row plus two gathered columns) — while a stream that never repeats
// holds 8 MiB of a 64 MiB budget rather than all of it.
const probationShare = 8

// Store is the byte-bounded store behind the serving layer's result
// cache, charged by Result.CacheBytes, and a shard's two-phase handoff
// (the selections and gathered columns shard.Executor keeps). It keeps
// only what repeats, as a segmented LRU:
//
//   - Every new entry goes to the head of probation, an LRU capped at
//     1/probationShare of the budget; the newest entry alone may pass
//     the cap.
//   - A request-level hit (Hit) promotes an entry to the head of
//     protected, which may use the whole budget. While the two segments
//     together pass it, protected's tail drops back to the head of
//     probation. Entries leave the store only from probation's tail.
//   - An internal read (Get) moves an entry to the head of the segment it
//     is in and never promotes it.
//
// So an answer requested once never reaches protected, and a stream of
// them churns through probation alone. A shard only ever reads with Get:
// its handoff lives and dies in probation.
type Store struct {
	mu         sync.Mutex
	max        int
	items      map[string]*storeEntry
	prob, prot segment
	evictions  uint64
}

// segment is a doubly linked LRU list around a sentinel: head.next is
// the most recently used entry, head.prev the least.
type segment struct {
	head  storeEntry
	bytes int // sum of the entries' sizes
}

type storeEntry struct {
	key        string
	val        any
	size       int
	seg        *segment
	prev, next *storeEntry
}

// StoreStats is a snapshot of a Store.
type StoreStats struct {
	Entries        int
	Bytes          int // what the entries are charged in all
	ProtectedBytes int // the part of Bytes in the protected segment
	Evictions      uint64
}

// NewStore returns a store holding entries up to maxBytes in total;
// maxBytes <= 0 stores nothing.
func NewStore(maxBytes int) *Store {
	s := &Store{max: maxBytes, items: map[string]*storeEntry{}}
	for _, g := range []*segment{&s.prob, &s.prot} {
		g.head.prev, g.head.next = &g.head, &g.head
	}
	return s
}

func (g *segment) pushFront(e *storeEntry) {
	e.seg, e.prev, e.next = g, &g.head, g.head.next
	e.next.prev = e
	g.head.next = e
	g.bytes += e.size
}

func (g *segment) remove(e *storeEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
	g.bytes -= e.size
}

// tail returns the least recently used entry other than skip, or nil.
func (g *segment) tail(skip *storeEntry) *storeEntry {
	e := g.head.prev
	if e == skip {
		e = e.prev
	}
	if e == &g.head {
		return nil
	}
	return e
}

// Hit returns the value stored under key as a request-level hit, which
// promotes it to protected.
func (s *Store) Hit(key string) (any, bool) { return s.read(key, true) }

// Get returns the value stored under key as an internal read, which
// refreshes it within its segment only.
func (s *Store) Get(key string) (any, bool) { return s.read(key, false) }

func (s *Store) read(key string, promote bool) (any, bool) {
	if s.max <= 0 {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok {
		return nil, false
	}
	g := e.seg
	if promote {
		g = &s.prot
	}
	e.seg.remove(e)
	g.pushFront(e) // to protected, the total and probation's share only fall
	return e.val, true
}

// Put stores val, which costs size bytes, under key: new at the head of
// probation, or in place of the key's value at the head of its segment.
// A value larger than the whole budget is not stored.
func (s *Store) Put(key string, val any, size int) {
	if s.max <= 0 || size > s.max {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := &s.prob
	e, ok := s.items[key]
	if ok {
		g = e.seg
		g.remove(e)
	} else {
		e = &storeEntry{key: key}
		s.items[key] = e
	}
	e.val, e.size = val, size
	g.pushFront(e)
	s.trim(e)
}

// trim restores the budget and probation's share after newest was
// stored, never evicting newest itself: probation's tail goes while
// probation is over its share, and while the whole store is over budget
// protected's tail drops back to probation first, so probation keeps its
// share of a full store.
func (s *Store) trim(newest *storeEntry) {
	for {
		over := s.prob.bytes+s.prot.bytes > s.max
		v := s.prob.tail(newest)
		switch {
		case v != nil && s.prob.bytes > s.max/probationShare:
			s.prob.remove(v)
			delete(s.items, v.key)
			s.evictions++
		case over: // so protected is not empty: probation alone is within budget
			d := s.prot.tail(nil)
			s.prot.remove(d)
			s.prob.pushFront(d)
		default:
			return
		}
	}
}

// Stats returns a snapshot of the store.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries:        len(s.items),
		Bytes:          s.prob.bytes + s.prot.bytes,
		ProtectedBytes: s.prot.bytes,
		Evictions:      s.evictions,
	}
}
