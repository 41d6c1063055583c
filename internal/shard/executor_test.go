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

// TestFragCacheByteBudget: the cache evicts least recently used entries
// once their summed size passes the budget, never keeps a result larger
// than the budget, and re-putting a key replaces its size exactly.
func TestFragCacheByteBudget(t *testing.T) {
	// Keys of one byte: an entry of n positions costs size(n).
	size := func(n int) int { return plan.CacheEntryOverhead + 1 + 8*n }
	c := newFragCache(size(100) + size(100) + size(50))
	c.put("a", sel(100))
	c.put("b", sel(100))
	c.put("c", sel(50))
	if c.len() != 3 || c.bytes != c.max {
		t.Fatalf("filled to the budget: %d entries, %d bytes of %d", c.len(), c.bytes, c.max)
	}
	if _, ok := c.get("a"); !ok { // a becomes the most recently used
		t.Fatal("a missing")
	}
	c.put("d", sel(60)) // size(60) over: b goes, c stays
	if _, ok := c.get("b"); ok {
		t.Fatal("least recently used entry b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s evicted, want only b", k)
		}
	}
	if want := size(100) + size(50) + size(60); c.bytes != want {
		t.Fatalf("bytes = %d, want %d", c.bytes, want)
	}

	// Re-putting a key charges the new size, not the sum of both.
	c.put("c", sel(10))
	if want := size(100) + size(10) + size(60); c.bytes != want {
		t.Fatalf("after re-put bytes = %d, want %d", c.bytes, want)
	}
	c.put("c", sel(50))
	if want := size(100) + size(50) + size(60); c.bytes != want || c.len() != 3 {
		t.Fatalf("after second re-put %d entries, %d bytes, want 3, %d", c.len(), c.bytes, want)
	}

	// A result larger than the whole budget is not cached and evicts nothing.
	c.put("huge", sel(c.max))
	if _, ok := c.get("huge"); ok || c.len() != 3 {
		t.Fatalf("oversized result cached (%d entries)", c.len())
	}

	// A zero budget disables the cache.
	off := newFragCache(0)
	off.put("a", sel(1))
	if _, ok := off.get("a"); ok || off.len() != 0 {
		t.Fatal("disabled cache stored a result")
	}
}

// TestFragCacheBoundsCountOnlyEntries: results with no payload, a
// never-repeating stream of counts, still cost their fixed overhead, so
// the budget bounds how many the cache holds.
func TestFragCacheBoundsCountOnlyEntries(t *testing.T) {
	const budget = 64 << 10
	c := newFragCache(budget)
	for i := 0; i < 10000; i++ {
		c.put(fmt.Sprintf("count\x1fstep=%d\x1fpx > %d && y < %d", i%12, i, i+7), &plan.FragmentResult{Count: uint64(i)})
	}
	if most := budget / plan.CacheEntryOverhead; c.len() == 0 || c.len() > most || c.bytes > budget {
		t.Fatalf("%d count-only entries, %d bytes; want 1..%d entries within %d bytes", c.len(), c.bytes, most, budget)
	}
}

// TestFragCacheChargesRealBytes: a cells-form histogram partial is
// charged its encoding, not its grid; a column gathered at a cached
// selection is charged 8 bytes a value beside it; and however entries of
// both kinds and plain results arrive, the total stays within budget and
// equals the sum of the entries' charges.
func TestFragCacheChargesRealBytes(t *testing.T) {
	e := histogram.UniformEdges(0, 1, 256)
	xs := []float64{0.1, 0.1, 0.2, 0.7, 0.9}
	h, err := histogram.Partial2DCtx(context.Background(), "x", "y", xs, xs, e, e)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts != nil {
		t.Fatal("5 values on a 256² grid binned dense")
	}
	res := &plan.FragmentResult{Hist2: h}
	c := newFragCache(1 << 20)
	c.put("h", res)
	want := plan.CacheEntryOverhead + 1 + h.CountBytes() + 8*2*257
	if c.bytes != want || h.CountBytes() > 64 {
		t.Fatalf("cells-form partial charged %d bytes (counts %d), want %d", c.bytes, h.CountBytes(), want)
	}

	g := gathered{c: c, key: "sel"}
	vals := make([]float64, 1000)
	g.Keep("px", vals)
	key := g.entry("px")
	want += plan.CacheEntryOverhead + len(key) + 8*len(vals)
	if c.bytes != want {
		t.Fatalf("gathered column charged %d bytes in all, want %d", c.bytes, want)
	}
	if got, ok := g.Column("px"); !ok || &got[0] != &vals[0] {
		t.Fatal("gathered column not kept")
	}
	if _, ok := g.Column("x"); ok {
		t.Fatal("a column never gathered was found")
	}
	if _, ok := c.get(key); ok {
		t.Fatal("a gathered column read back as a fragment result")
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		k := fmt.Sprint(rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			c.put(k, sel(rng.Intn(20000)))
		case 1:
			gathered{c: c, key: k}.Keep("x", make([]float64, rng.Intn(40000)))
		default:
			c.put(k, res)
		}
		sum := 0
		for el := c.ll.Front(); el != nil; el = el.Next() {
			sum += el.Value.(*fragEntry).size
		}
		if c.bytes > c.max || c.bytes != sum {
			t.Fatalf("after %d puts: %d bytes charged, entries sum to %d, budget %d", i+1, c.bytes, sum, c.max)
		}
	}
}
