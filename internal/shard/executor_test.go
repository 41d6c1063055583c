package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/histogram"
	"repro/internal/plan"
)

// sel returns a FragSelect result of n positions: 8n bytes of payload.
func sel(n int) *plan.FragmentResult {
	return &plan.FragmentResult{Count: uint64(n), Sel: make([]uint64, n)}
}

// put stores a fragment result in the fragment cache as the executor
// does, charged res.CacheBytes.
func put(c *plan.Store, key string, res *plan.FragmentResult) { c.Put(key, res, res.CacheBytes(key)) }

// get reads a fragment result as an internal read, which promotes nothing.
func get(c *plan.Store, key string) (*plan.FragmentResult, bool) { return fragResult(c.Get(key)) }

// TestFragCacheByteBudget: new results wait in probation, an eighth of
// the budget, whose least recently used entries go once their summed size
// passes it; the cache never keeps a result larger than the budget, and
// re-putting a key replaces its size exactly.
func TestFragCacheByteBudget(t *testing.T) {
	// Keys of one byte: an entry of n positions costs size(n).
	size := func(n int) int { return plan.CacheEntryOverhead + 1 + 8*n }
	share := size(100) + size(100) + size(50)
	c := NewExecutor(8 * share).cache
	put(c, "a", sel(100))
	put(c, "b", sel(100))
	put(c, "c", sel(50))
	if st := c.Stats(); st.Entries != 3 || st.Bytes != share {
		t.Fatalf("filled to probation's share: %+v, want %d bytes", st, share)
	}
	if _, ok := get(c, "a"); !ok { // a becomes the most recently used
		t.Fatal("a missing")
	}
	put(c, "d", sel(60)) // size(60) over: b goes, c stays
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
	put(c, "c", sel(10))
	if st, want := c.Stats(), size(100)+size(10)+size(60); st.Bytes != want {
		t.Fatalf("after re-put bytes = %d, want %d", st.Bytes, want)
	}
	put(c, "c", sel(50))
	if st, want := c.Stats(), size(100)+size(50)+size(60); st.Bytes != want || st.Entries != 3 {
		t.Fatalf("after second re-put %+v, want 3 entries, %d bytes", st, want)
	}

	// A result larger than the whole budget is not cached and evicts nothing.
	put(c, "huge", sel(8*share))
	if _, ok := get(c, "huge"); ok || c.Stats().Entries != 3 {
		t.Fatalf("oversized result cached (%+v)", c.Stats())
	}

	// A zero budget disables the cache.
	off := NewExecutor(0).cache
	put(off, "a", sel(1))
	if _, ok := get(off, "a"); ok || off.Stats().Entries != 0 {
		t.Fatal("disabled cache stored a result")
	}
}

// TestFragCacheBoundsCountOnlyEntries: results with no payload, a
// never-repeating stream of counts, still cost their fixed overhead, so
// the budget bounds how many the cache holds — none of them hit, so all
// in probation's eighth of it.
func TestFragCacheBoundsCountOnlyEntries(t *testing.T) {
	const budget = 64 << 10
	c := NewExecutor(budget).cache
	for i := 0; i < 10000; i++ {
		put(c, fmt.Sprintf("count\x1fstep=%d\x1fpx > %d && y < %d", i%12, i, i+7), &plan.FragmentResult{Count: uint64(i)})
	}
	st := c.Stats()
	if most := budget / 8 / plan.CacheEntryOverhead; st.Entries == 0 || st.Entries > most || st.Bytes > budget/8 || st.ProtectedBytes != 0 {
		t.Fatalf("%+v; want 1..%d entries within %d bytes, none protected", st, most, budget/8)
	}
}

// TestFragCacheChargesRealBytes: a cells-form histogram partial is
// charged its encoding, not its grid; a column gathered at a cached
// selection is charged 8 bytes a value beside it; and however entries of
// both kinds and plain results arrive, the total stays within budget and
// equals the sum of the resident entries' charges.
func TestFragCacheChargesRealBytes(t *testing.T) {
	e := histogram.UniformEdges(0, 1, 256)
	xs := []float64{0.1, 0.1, 0.2, 0.7, 0.9}
	h, err := histogram.Partial2DCtx(context.Background(), "x", "y", xs, xs, e, e)
	if err != nil {
		t.Fatal(err)
	}
	res := &plan.FragmentResult{Hist2: h}
	const budget = 1 << 20
	c := NewExecutor(budget).cache
	put(c, "h", res)
	want := plan.CacheEntryOverhead + 1 + h.CountBytes() + 8*2*257
	if got := c.Stats().Bytes; got != want || h.CountBytes() > 64 {
		t.Fatalf("cells-form partial charged %d bytes (counts %d), want %d", got, h.CountBytes(), want)
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
		t.Fatal("a gathered column read back as a fragment result")
	}

	rng := rand.New(rand.NewSource(1))
	keys := map[string]bool{"h": true, key: true}
	for i := 0; i < 2000; i++ {
		k := fmt.Sprint(rng.Intn(300))
		switch rng.Intn(4) {
		case 0:
			put(c, k, sel(rng.Intn(20000)))
			keys[k] = true
		case 1:
			g := gathered{c: c, key: k}
			g.Keep("x", make([]float64, rng.Intn(40000)))
			keys[g.entry("x")] = true
		case 2:
			put(c, k, res)
			keys[k] = true
		default:
			c.Hit(k) // a requested fragment's hit promotes it
		}
		sum := 0
		for k := range keys {
			switch v, _ := c.Get(k); v := v.(type) {
			case *plan.FragmentResult:
				sum += v.CacheBytes(k)
			case []float64:
				sum += plan.CacheEntryOverhead + len(k) + 8*cap(v)
			}
		}
		if st := c.Stats(); st.Bytes > budget || st.Bytes != sum {
			t.Fatalf("after %d operations: %d bytes charged, entries sum to %d, budget %d", i+1, st.Bytes, sum, budget)
		}
	}
}
