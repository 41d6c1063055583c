package shard

import (
	"fmt"
	"testing"

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
