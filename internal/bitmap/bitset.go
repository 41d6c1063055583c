package bitmap

import "math/bits"

// BitSet is a plain uncompressed bit vector backed by 64-bit words. It is
// where every set operation runs — bin words are decoded into it with
// Vector.OrInto and terms combine in place with AndWith, OrWith and
// Invert — and the ablation baseline for the WAH design choice: O(n/64)
// words regardless of content. Bits past Len are always zero.
type BitSet struct {
	words []uint64
	n     uint64
}

// NewBitSet returns a zeroed bit set of length n. Its backing array holds
// one spare word past the last, so a group ORed in at any position inside
// the set may write its (then zero) top half to the next word without a
// bounds branch.
func NewBitSet(n uint64) *BitSet {
	nw := (n + 63) / 64
	return &BitSet{words: make([]uint64, nw, nw+1), n: n}
}

// Len returns the number of bits in the set.
func (s *BitSet) Len() uint64 { return s.n }

// SizeBytes returns the in-memory size of the backing array.
func (s *BitSet) SizeBytes() int { return 8 * len(s.words) }

// Set sets the bit at position p.
func (s *BitSet) Set(p uint64) { s.words[p/64] |= 1 << (p % 64) }

// Get reports the bit at position p.
func (s *BitSet) Get(p uint64) bool {
	if p >= s.n {
		return false
	}
	return s.words[p/64]&(1<<(p%64)) != 0
}

// Count returns the number of set bits.
func (s *BitSet) Count() uint64 {
	var c uint64
	for _, w := range s.words {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

// Iterate calls fn for each set bit position in increasing order; it stops
// early if fn returns false.
func (s *BitSet) Iterate(fn func(pos uint64) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := uint64(bits.TrailingZeros64(w))
			p := uint64(i)*64 + b
			if p >= s.n {
				return
			}
			if !fn(p) {
				return
			}
			w &= w - 1
		}
	}
}

// AndWith clears every bit of s that o does not set; o is as long as s.
func (s *BitSet) AndWith(o *BitSet) {
	ow := o.words[:len(s.words)]
	for i := range s.words {
		s.words[i] &= ow[i]
	}
}

// OrWith sets every bit of s that o sets; o is as long as s.
func (s *BitSet) OrWith(o *BitSet) {
	ow := o.words[:len(s.words)]
	for i, w := range ow {
		s.words[i] |= w
	}
}

// AndWithUnion clears every bit of s that neither a nor b sets; a and b
// are as long as s.
func (s *BitSet) AndWithUnion(a, b *BitSet) {
	aw, bw := a.words[:len(s.words)], b.words[:len(s.words)]
	for i := range s.words {
		s.words[i] &= aw[i] | bw[i]
	}
}

// Invert complements s over its own length.
func (s *BitSet) Invert() {
	for i, w := range s.words {
		s.words[i] = ^w
	}
	if r := s.n % 64; r != 0 {
		s.words[len(s.words)-1] &= 1<<r - 1
	}
}

// Reset clears every bit of s.
func (s *BitSet) Reset() { clear(s.words) }

// Any reports whether s has a set bit.
func (s *BitSet) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Positions returns the positions of the set bits plus off, in order, or
// nil when there are none: a set over rows [lo, hi) lists its rows with
// off = lo.
func (s *BitSet) Positions(off uint64) []uint64 {
	n := s.Count()
	if n == 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	for i, w := range s.words {
		at := uint64(i)*64 + off
		for ; w != 0; w &= w - 1 {
			out = append(out, at+uint64(bits.TrailingZeros64(w)))
		}
	}
	return out
}

// setRange sets the bits [a, b).
func (s *BitSet) setRange(a, b uint64) {
	if a >= b {
		return
	}
	wa, wb := a/64, (b-1)/64
	first, last := ^uint64(0)<<(a%64), ^uint64(0)>>(63-(b-1)%64)
	if wa == wb {
		s.words[wa] |= first & last
		return
	}
	s.words[wa] |= first
	for i := wa + 1; i < wb; i++ {
		s.words[i] = ^uint64(0)
	}
	s.words[wb] |= last
}

// orGroup ORs the 31-bit group g into s at bit p: bit j of g lands on bit
// p+j. p is inside s, and so is every set bit of g once shifted.
func (s *BitSet) orGroup(g uint32, p uint64) {
	w, sh := p/64, p%64
	pair := s.words[w : w+2 : w+2] // the spare word may be the second
	pair[0] |= uint64(g) << sh
	pair[1] |= uint64(g) >> (64 - sh) // zero unless g straddles two words
}

// countRange returns the number of set bits in [a, b), b clipped to Len.
func (s *BitSet) countRange(a, b uint64) uint64 {
	b = min(b, s.n)
	if a >= b {
		return 0
	}
	wa, wb := a/64, (b-1)/64
	first, last := ^uint64(0)<<(a%64), ^uint64(0)>>(63-(b-1)%64)
	if wa == wb {
		return uint64(bits.OnesCount64(s.words[wa] & first & last))
	}
	c := uint64(bits.OnesCount64(s.words[wa]&first) + bits.OnesCount64(s.words[wb]&last))
	for _, w := range s.words[wa+1 : wb] {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

// group returns the 31 bits of s from position p on, bit j of the result
// being bit p+j; positions past Len read as zero.
func (s *BitSet) group(p uint64) uint32 {
	w, sh := p/64, p%64
	if w >= uint64(len(s.words)) {
		return 0
	}
	x := s.words[w] >> sh
	if sh > 64-groupBits && w+1 < uint64(len(s.words)) {
		x |= s.words[w+1] << (64 - sh)
	}
	return uint32(x) & litMask
}

// ToVector encodes the bit set as a WAH vector, a 31-bit group at a time.
func (s *BitSet) ToVector() *Vector {
	groups := make([]uint32, (s.n+groupBits-1)/groupBits)
	for g := range groups {
		groups[g] = s.group(uint64(g) * groupBits)
	}
	return encodeGroups(groups, s.n)
}
