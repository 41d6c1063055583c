package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// storeModel is the reference for Store: two slices of entries, head
// first, with the policy written out longhand.
type storeModel struct {
	max        int
	prob, prot []modelEntry
}

type modelEntry struct {
	key  string
	size int
}

func sum(es []modelEntry) (n int) {
	for _, e := range es {
		n += e.size
	}
	return n
}

// find returns the segment holding key and its index there.
func (m *storeModel) find(key string) (*[]modelEntry, int) {
	for _, seg := range []*[]modelEntry{&m.prob, &m.prot} {
		for i, e := range *seg {
			if e.key == key {
				return seg, i
			}
		}
	}
	return nil, -1
}

func (m *storeModel) read(key string, promote bool) bool {
	seg, i := m.find(key)
	if seg == nil {
		return false
	}
	e := (*seg)[i]
	*seg = slices.Delete(*seg, i, i+1)
	if promote {
		seg = &m.prot
	}
	*seg = slices.Insert(*seg, 0, e)
	return true
}

func (m *storeModel) put(key string, size int) {
	if m.max <= 0 || size > m.max {
		return
	}
	seg, i := m.find(key)
	if seg == nil {
		seg = &m.prob
	} else {
		*seg = slices.Delete(*seg, i, i+1)
	}
	*seg = slices.Insert(*seg, 0, modelEntry{key, size})
	for {
		if sum(m.prob) > m.max/probationShare {
			v := len(m.prob) - 1
			if v >= 0 && m.prob[v].key == key {
				v--
			}
			if v >= 0 {
				m.prob = slices.Delete(m.prob, v, v+1)
				continue
			}
		}
		if sum(m.prob)+sum(m.prot) > m.max {
			d := m.prot[len(m.prot)-1]
			m.prot = m.prot[:len(m.prot)-1]
			m.prob = slices.Insert(m.prob, 0, d)
			continue
		}
		return
	}
}

// segmentOf lists a store segment head first, checking its links.
func segmentOf(t *testing.T, g *segment) []modelEntry {
	t.Helper()
	var out []modelEntry
	prev := &g.head
	for e := g.head.next; e != &g.head; e = e.next {
		if e.prev != prev || e.seg != g {
			t.Fatalf("entry %q badly linked", e.key)
		}
		out = append(out, modelEntry{e.key, e.size})
		prev = e
	}
	return out
}

// checkStore compares s with the model and checks its invariants: the
// byte accounting is exact, the total is within the budget, and
// probation is within its share or holds one entry, the newest.
func checkStore(t *testing.T, s *Store, m *storeModel, step string) {
	t.Helper()
	prob, prot := segmentOf(t, &s.prob), segmentOf(t, &s.prot)
	if !slices.Equal(prob, m.prob) || !slices.Equal(prot, m.prot) {
		t.Fatalf("%s: store probation %v protected %v, model %v %v", step, prob, prot, m.prob, m.prot)
	}
	if s.prob.bytes != sum(prob) || s.prot.bytes != sum(prot) || len(s.items) != len(prob)+len(prot) {
		t.Fatalf("%s: charged %d+%d bytes, %d items; entries sum to %d+%d, %d entries",
			step, s.prob.bytes, s.prot.bytes, len(s.items), sum(prob), sum(prot), len(prob)+len(prot))
	}
	if st := s.Stats(); st.Bytes > s.max || st.ProtectedBytes != s.prot.bytes {
		t.Fatalf("%s: stats %+v over a budget of %d", step, st, s.max)
	}
	if s.prob.bytes > s.max/probationShare && len(prob) != 1 {
		t.Fatalf("%s: probation holds %d bytes in %d entries, share %d", step, s.prob.bytes, len(prob), s.max/probationShare)
	}
}

// TestStoreMatchesModel drives the store and the model through random
// puts, request-level hits and internal reads over a small key space,
// with sizes from a few bytes to over the budget, and compares them after
// every operation.
func TestStoreMatchesModel(t *testing.T) {
	for _, max := range []int{0, 1, 100, 1000, 5000} {
		rng := rand.New(rand.NewSource(int64(max)))
		s, m := NewStore(max), &storeModel{max: max}
		for i := 0; i < 5000; i++ {
			key := fmt.Sprint(rng.Intn(40))
			var step string
			switch op := rng.Intn(10); {
			case op < 5:
				size := 1 + rng.Intn(max/probationShare+2)
				switch rng.Intn(10) {
				case 0:
					size = 1 + rng.Intn(max+10) // up to over the budget
				case 1:
					size = max/2 + rng.Intn(max/2+1)
				}
				step = fmt.Sprintf("op %d put %s %d", i, key, size)
				s.Put(key, i, size)
				m.put(key, size)
			case op < 8:
				step = fmt.Sprintf("op %d hit %s", i, key)
				_, ok := s.Hit(key)
				if ok != m.read(key, true) {
					t.Fatalf("%s: store found %v, model not", step, ok)
				}
			default:
				step = fmt.Sprintf("op %d get %s", i, key)
				_, ok := s.Get(key)
				if ok != m.read(key, false) {
					t.Fatalf("%s: store found %v, model not", step, ok)
				}
			}
			checkStore(t, s, m, step)
		}
	}
}

// TestStoreKeepsWhatRepeats: keys hit once survive any flood of one-hit
// keys while protected has room (what they weigh plus probation's share
// is within the budget), the flood never reaches protected, and values
// read back as stored.
func TestStoreKeepsWhatRepeats(t *testing.T) {
	const max = 1 << 20
	share := max / probationShare
	rng := rand.New(rand.NewSource(7))
	s := NewStore(max)
	kept := 0
	var hot []string
	for kept+share/2 <= max-share {
		key := fmt.Sprintf("hot %d", len(hot))
		s.Put(key, key, share/2)
		if _, ok := s.Hit(key); !ok {
			t.Fatalf("%s lost before its hit", key)
		}
		hot = append(hot, key)
		kept += share / 2
	}
	for i := 0; i < 20000; i++ {
		key := fmt.Sprintf("once %d", i)
		s.Put(key, key, 1+rng.Intn(share))
		if rng.Intn(2) == 0 {
			s.Get(key) // an internal read promotes nothing
		}
		if st := s.Stats(); st.ProtectedBytes != kept || st.Bytes > max {
			t.Fatalf("flood %d: stats %+v, want %d protected bytes within %d", i, st, kept, max)
		}
	}
	for _, key := range hot {
		if v, ok := s.Get(key); !ok || v != key {
			t.Fatalf("%s: %v %v after the flood", key, v, ok)
		}
	}
}

// TestStoreNewestStays: an entry over probation's share is stored alone
// in it, and protected's tail drops back to probation rather than the
// newest entry leaving when the two pass the budget together.
func TestStoreNewestStays(t *testing.T) {
	s := NewStore(800) // share 100
	s.Put("p", nil, 500)
	s.Hit("p")
	s.Put("a", nil, 50)
	s.Put("big", nil, 400) // a goes; p drops back and leaves before big
	if _, ok := s.Get("big"); !ok {
		t.Fatal("the newest entry was evicted")
	}
	for _, key := range []string{"a", "p"} {
		if _, ok := s.Get(key); ok {
			t.Fatalf("%s survived: %+v", key, s.Stats())
		}
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != 400 || st.ProtectedBytes != 0 || st.Evictions != 2 {
		t.Fatalf("stats %+v", st)
	}
}
