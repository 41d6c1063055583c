package bitmap

import "math/bits"

// The set operations on WAH vectors all run on BitSets: each operand is
// decoded with OrInto, the sets are combined in place (AndWith, OrWith,
// Invert) and the result is encoded once. A result is as long as the
// longest operand, the shorter ones zero-extended.

// decode returns v's bits as a BitSet of n >= v.Len() bits, zero past
// v.Len().
func (v *Vector) decode(n uint64) *BitSet {
	s := NewBitSet(n)
	v.OrInto(s, 0, n)
	return s
}

// And returns the bitwise AND of v and o.
func (v *Vector) And(o *Vector) *Vector {
	n := max(v.n, o.n)
	s := v.decode(n)
	s.AndWith(o.decode(n))
	return s.ToVector()
}

// OrAll returns the OR of vs, as long as the longest: every input is ORed
// into one BitSet and the set is encoded once.
func OrAll(vs []*Vector) *Vector {
	var n uint64
	for _, v := range vs {
		n = max(n, v.n)
	}
	s := NewBitSet(n)
	for _, v := range vs {
		v.OrInto(s, 0, n)
	}
	return s.ToVector()
}

// AndCount returns the number of positions set in both v and s, bit p of
// v against bit p of s, walking only v's words: a one-fill counts s's
// ones over its range, a literal its group ANDed with s's bits there.
// Only the positions both cover count, so a condition's set can be
// counted against every bin of an index without encoding it. This is the
// operation behind the bitmap-count histograms.
func (v *Vector) AndCount(s *BitSet) uint64 {
	var c, at uint64
	for _, w := range v.words {
		if at >= s.n {
			return c
		}
		if w&fillFlag != 0 {
			span := uint64(w&maxFill) * groupBits
			if w&fillOne != 0 {
				c += s.countRange(at, at+span)
			}
			at += span
			continue
		}
		c += uint64(bits.OnesCount32(w & s.group(at)))
		at += groupBits
	}
	return c + uint64(bits.OnesCount32(v.act&s.group(at)))
}

// encodeGroups encodes n bits given uncompressed as 31-bit groups, the
// last one partial when n is not a multiple of 31: each run of all-zero
// or all-one groups becomes a fill, every other group a literal.
func encodeGroups(groups []uint32, n uint64) *Vector {
	out := New(n)
	full := n / groupBits
	for g := uint64(0); g < full; {
		w := groups[g]
		if w != 0 && w != allOnes {
			out.words = append(out.words, w)
			g++
			continue
		}
		run := g + 1
		for run < full && groups[run] == w {
			run++
		}
		out.appendFill(w != 0, run-g)
		g = run
	}
	out.n = n
	if rem := n % groupBits; rem != 0 {
		out.act, out.nact = groups[full]&(uint32(1)<<rem-1), uint8(rem)
	}
	out.Compact()
	return out
}
