package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/plan"
)

// sel returns a FragSelect result of n positions: 8n bytes of payload.
func sel(n int) *plan.FragmentResult {
	return &plan.FragmentResult{Count: uint64(n), Sel: make([]uint64, n)}
}

// get reads a selection as the executor does, which promotes nothing.
func get(c *plan.Store, key string) (*plan.FragmentResult, bool) { return fragResult(c.Get(key)) }

// TestFragCacheByteBudget: new selections wait in probation, an eighth of
// the budget, whose least recently used entries go once their summed size
// passes it; the handoff store never keeps a selection larger than the
// budget, and re-putting a key replaces its size exactly.
func TestFragCacheByteBudget(t *testing.T) {
	// Keys of one byte: an entry of n positions costs size(n).
	size := func(n int) int { return plan.CacheEntryOverhead + 1 + 8*n }
	share := size(100) + size(100) + size(50)
	c := NewExecutor(8 * share).handoff
	keepSelection(c, "a", sel(100))
	keepSelection(c, "b", sel(100))
	keepSelection(c, "c", sel(50))
	if st := c.Stats(); st.Entries != 3 || st.Bytes != share {
		t.Fatalf("filled to probation's share: %+v, want %d bytes", st, share)
	}
	if _, ok := get(c, "a"); !ok { // a becomes the most recently used
		t.Fatal("a missing")
	}
	keepSelection(c, "d", sel(60)) // size(60) over: b goes, c stays
	if _, ok := get(c, "b"); ok {
		t.Fatal("least recently used entry b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := get(c, k); !ok {
			t.Fatalf("%s evicted, want only b", k)
		}
	}
	if st, want := c.Stats(), size(100)+size(50)+size(60); st.Bytes != want || st.ProtectedBytes != 0 {
		t.Fatalf("stats %+v, want %d bytes, none protected", st, want)
	}

	// Re-putting a key charges the new size, not the sum of both.
	keepSelection(c, "c", sel(10))
	if st, want := c.Stats(), size(100)+size(10)+size(60); st.Bytes != want {
		t.Fatalf("after re-put bytes = %d, want %d", st.Bytes, want)
	}
	keepSelection(c, "c", sel(50))
	if st, want := c.Stats(), size(100)+size(50)+size(60); st.Bytes != want || st.Entries != 3 {
		t.Fatalf("after second re-put %+v, want 3 entries, %d bytes", st, want)
	}

	// A selection larger than the whole budget is not kept and evicts
	// nothing.
	keepSelection(c, "huge", sel(8*share))
	if _, ok := get(c, "huge"); ok || c.Stats().Entries != 3 {
		t.Fatalf("oversized selection kept (%+v)", c.Stats())
	}

	// A zero budget keeps nothing.
	off := NewExecutor(0).handoff
	keepSelection(off, "a", sel(1))
	if _, ok := get(off, "a"); ok || off.Stats().Entries != 0 {
		t.Fatal("a zero budget kept a selection")
	}
}

// TestFragCacheBoundsCountOnlyEntries: selections with no payload, a
// never-repeating stream of empty ones, still cost their fixed overhead,
// so the budget bounds how many the handoff store holds — nothing is
// promoted, so all in probation's eighth of it.
func TestFragCacheBoundsCountOnlyEntries(t *testing.T) {
	const budget = 64 << 10
	c := NewExecutor(budget).handoff
	for i := 0; i < 10000; i++ {
		keepSelection(c, fmt.Sprintf("select\x1fstep=%d\x1fpx > %d && y < %d", i%12, i, i+7), sel(0))
	}
	st := c.Stats()
	if most := budget / 8 / plan.CacheEntryOverhead; st.Entries == 0 || st.Entries > most || st.Bytes > budget/8 || st.ProtectedBytes != 0 {
		t.Fatalf("%+v; want 1..%d entries within %d bytes, none protected", st, most, budget/8)
	}
}

// TestFragCacheChargesRealBytes: a selection is charged 8 bytes a
// position, and a column gathered at it 8 bytes a value beside it; and
// however entries of both kinds arrive and are read, the total stays
// within budget and equals the sum of the resident entries' charges.
func TestFragCacheChargesRealBytes(t *testing.T) {
	const budget = 1 << 20
	c := NewExecutor(budget).handoff
	keepSelection(c, "sel", sel(1000))
	want := plan.CacheEntryOverhead + len("sel") + 8*1000
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("selection charged %d bytes, want %d", got, want)
	}

	g := gathered{c: c, key: "sel"}
	vals := make([]float64, 1000)
	g.Keep("px", vals)
	key := g.entry("px")
	want += plan.CacheEntryOverhead + len(key) + 8*len(vals)
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("gathered column charged %d bytes in all, want %d", got, want)
	}
	if got, ok := g.Column("px"); !ok || &got[0] != &vals[0] {
		t.Fatal("gathered column not kept")
	}
	if _, ok := g.Column("x"); ok {
		t.Fatal("a column never gathered was found")
	}
	if _, ok := get(c, key); ok {
		t.Fatal("a gathered column read back as a selection")
	}

	rng := rand.New(rand.NewSource(1))
	keys := map[string]bool{"sel": true, key: true}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprint(rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			keepSelection(c, k, sel(rng.Intn(20000)))
			keys[k] = true
		case 1:
			g := gathered{c: c, key: k}
			g.Keep("x", make([]float64, rng.Intn(40000)))
			keys[g.entry("x")] = true
		default:
			get(c, k) // a later phase's read moves it within probation
		}
		sum := 0
		for k := range keys {
			switch v, _ := c.Get(k); v := v.(type) {
			case *plan.FragmentResult:
				sum += plan.CacheEntryOverhead + len(k) + 8*len(v.Sel)
			case []float64:
				sum += plan.CacheEntryOverhead + len(k) + 8*cap(v)
			}
		}
		if st := c.Stats(); st.Bytes > budget || st.Bytes != sum || st.ProtectedBytes != 0 {
			t.Fatalf("after %d operations: %+v; entries sum to %d, budget %d, none protected", i+1, st, sum, budget)
		}
	}
}
