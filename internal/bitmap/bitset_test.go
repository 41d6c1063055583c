package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetBasics(t *testing.T) {
	s := NewBitSet(130)
	if s.Len() != 130 || s.Count() != 0 {
		t.Fatalf("fresh BitSet: Len=%d Count=%d", s.Len(), s.Count())
	}
	for _, p := range []uint64{0, 63, 64, 129} {
		s.Set(p)
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	if !s.Get(63) || s.Get(62) || s.Get(200) {
		t.Fatal("Get wrong")
	}
}

func TestBitSetOps(t *testing.T) {
	a := NewBitSet(100)
	b := NewBitSet(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)
	and, or := NewBitSet(100), NewBitSet(100)
	and.OrWith(a)
	if and.AndWith(b); and.Count() != 1 || !and.Get(50) {
		t.Fatalf("AndWith wrong: count=%d", and.Count())
	}
	or.OrWith(a)
	if or.OrWith(b); or.Count() != 3 {
		t.Fatalf("OrWith wrong: count=%d", or.Count())
	}
	if or.Invert(); or.Count() != 97 || or.Get(50) || !or.Get(0) {
		t.Fatalf("Invert wrong: count=%d", or.Count())
	}
	c := NewBitSet(100)
	for _, p := range []uint64{1, 2, 50, 98, 99} {
		c.Set(p)
	}
	c.AndWithUnion(a, b)
	if c.Count() != 3 || !c.Get(1) || !c.Get(50) || !c.Get(99) {
		t.Fatalf("AndWithUnion wrong: count=%d", c.Count())
	}
}

// bitSetOf decodes v into a BitSet over its whole length, as an
// evaluation decodes a bin's window.
func bitSetOf(v *Vector) *BitSet { return v.decode(v.Len()) }

// not is v's complement over its own length, taken as an evaluation takes
// one: decoded into a BitSet, inverted and encoded again.
func not(v *Vector) *Vector {
	s := bitSetOf(v)
	s.Invert()
	return s.ToVector()
}

func TestBitSetVectorConversionProperty(t *testing.T) {
	f := func(bs []bool) bool {
		v := FromBools(bs)
		s := bitSetOf(v)
		if s.Len() != v.Len() || s.Count() != v.Count() {
			return false
		}
		return s.ToVector().Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitSetIterateMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomBits(rng, 1000, 0.1)
	v := FromBools(r)
	s := bitSetOf(v)
	var pv, ps []uint64
	v.Iterate(func(p uint64) bool { pv = append(pv, p); return true })
	s.Iterate(func(p uint64) bool { ps = append(ps, p); return true })
	if len(pv) != len(ps) {
		t.Fatalf("position count mismatch %d vs %d", len(pv), len(ps))
	}
	for i := range pv {
		if pv[i] != ps[i] {
			t.Fatalf("position %d: %d vs %d", i, pv[i], ps[i])
		}
	}
}

func TestBitSetIterateEarlyStop(t *testing.T) {
	s := NewBitSet(100)
	s.Set(5)
	s.Set(10)
	s.Set(20)
	var n int
	s.Iterate(func(p uint64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestWAHCompressionBeatsBitSetOnSparseData(t *testing.T) {
	// The design rationale for WAH: sparse index bitmaps compress far
	// below the dense representation.
	n := uint64(1 << 20)
	v := New(n)
	v.AppendRun(false, n/2)
	v.AppendBit(true)
	v.AppendRun(false, n/2-1)
	v.Compact() // New reserved for n bits; SizeBytes counts that reserve
	s := bitSetOf(v)
	if v.SizeBytes()*100 > s.SizeBytes() {
		t.Fatalf("WAH %dB not ≪ BitSet %dB", v.SizeBytes(), s.SizeBytes())
	}
}
