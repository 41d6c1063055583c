// Package bitmap implements Word-Aligned Hybrid (WAH) compressed bit
// vectors, the compression scheme used by the FastBit bitmap index engine
// (Wu, Otoo, Shoshani: "Optimizing bitmap indices with efficient
// compression", ACM TODS 2006).
//
// A WAH vector stores bits in 31-bit groups. Each encoded 32-bit word is
// either a literal word (MSB clear, low 31 bits hold one group verbatim) or
// a fill word (MSB set, bit 30 holds the fill bit, low 30 bits count how
// many consecutive identical groups the fill spans). The WAH form is an
// encoding only: vectors are built (AppendRun, FromPositions,
// BitSet.ToVector), decoded (OrInto, Positions, Count, Window) and
// serialized.
//
// Set operations run on the uncompressed BitSet: a query decodes its bins'
// words into one window set, combines terms there in place, and counts a
// bin against the set (AndCount) without encoding it. And, OrAll and
// Equal on vectors decode, combine and encode the same way. The BitSet is
// also the ablation baseline for the WAH design choice.
package bitmap

import (
	"fmt"
	"math/bits"
	"strings"
)

const (
	groupBits = 31                // bits per WAH group
	litMask   = uint32(1)<<31 - 1 // low 31 bits
	fillFlag  = uint32(1) << 31   // MSB marks a fill word
	fillOne   = uint32(1) << 30   // fill-bit for a run of ones
	maxFill   = uint32(1)<<30 - 1 // maximum group count in one fill word
	allOnes   = litMask           // a literal group of 31 one-bits
)

// Vector is a WAH-compressed bit vector. The zero value is an empty vector
// ready for use. Bits are appended with AppendBit / AppendRun; once
// built, vectors are treated as immutable. They are combined in a BitSet
// (OrInto, then AndWith, OrWith or Invert); And and OrAll allocate fresh
// result vectors that way.
type Vector struct {
	words []uint32 // encoded literal/fill words
	act   uint32   // partial group not yet encoded (LSB-first)
	nact  uint8    // number of valid bits in act (0..30)
	n     uint64   // total number of bits in the vector
}

// New returns an empty vector with capacity hints for nbits bits.
func New(nbits uint64) *Vector {
	return &Vector{words: make([]uint32, 0, nbits/groupBits/8+1)}
}

// Compact drops the words' spare capacity, which appending leaves behind
// (New reserves for a bit count, not for what the vector ends up
// holding): after it, SizeBytes is what the vector keeps. Every vector
// the package builds is returned compact; one built with the Append
// methods is compacted by its builder.
func (v *Vector) Compact() {
	if cap(v.words) != len(v.words) {
		v.words = append(make([]uint32, 0, len(v.words)), v.words...)
	}
}

// FromBools builds a vector from a slice of booleans.
func FromBools(bs []bool) *Vector {
	v := New(uint64(len(bs)))
	for _, b := range bs {
		v.AppendBit(b)
	}
	v.Compact()
	return v
}

// FromPositions builds a vector of length n with ones at the given sorted,
// unique positions. Positions must be strictly increasing and < n; it
// returns an error otherwise.
func FromPositions(n uint64, pos []uint64) (*Vector, error) {
	v := New(n)
	var at uint64
	for i, p := range pos {
		if p >= n {
			return nil, fmt.Errorf("bitmap: position %d out of range %d", p, n)
		}
		if i > 0 && p <= pos[i-1] {
			return nil, fmt.Errorf("bitmap: positions not strictly increasing at %d", i)
		}
		v.AppendRun(false, p-at)
		v.AppendBit(true)
		at = p + 1
	}
	v.AppendRun(false, n-at)
	v.Compact()
	return v, nil
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() uint64 { return v.n }

// Words returns the number of encoded 32-bit words, a proxy for the
// compressed size of the vector.
func (v *Vector) Words() int { return len(v.words) }

// SizeBytes returns the approximate in-memory size of the encoded vector:
// the words' backing array, spare capacity included, and the header.
func (v *Vector) SizeBytes() int { return 4*cap(v.words) + 16 }

// AppendBit appends one bit to the vector.
func (v *Vector) AppendBit(b bool) {
	if b {
		v.act |= uint32(1) << v.nact
	}
	v.nact++
	v.n++
	if v.nact == groupBits {
		v.flushGroup(v.act)
		v.act, v.nact = 0, 0
	}
}

// AppendRun appends count copies of bit b.
func (v *Vector) AppendRun(b bool, count uint64) {
	// Fill the partial group first.
	for count > 0 && v.nact != 0 {
		v.AppendBit(b)
		count--
	}
	// Whole groups as fills.
	groups := count / groupBits
	if groups > 0 {
		v.appendFill(b, groups)
		v.n += groups * groupBits
		count -= groups * groupBits
	}
	for ; count > 0; count-- {
		v.AppendBit(b)
	}
}

// flushGroup encodes one complete 31-bit group, merging with a preceding
// fill when possible. It does not touch v.n.
func (v *Vector) flushGroup(g uint32) {
	switch g {
	case 0:
		v.extendFill(false, 1)
	case allOnes:
		v.extendFill(true, 1)
	default:
		v.words = append(v.words, g)
	}
}

// appendFill encodes `groups` identical groups of bit b.
func (v *Vector) appendFill(b bool, groups uint64) {
	for groups > 0 {
		chunk := groups
		if chunk > uint64(maxFill) {
			chunk = uint64(maxFill)
		}
		v.extendFill(b, uint32(chunk))
		groups -= chunk
	}
}

// extendFill merges a run of identical groups into the trailing word when
// that word is a compatible fill with spare capacity.
func (v *Vector) extendFill(b bool, groups uint32) {
	if n := len(v.words); n > 0 {
		last := v.words[n-1]
		if last&fillFlag != 0 && (last&fillOne != 0) == b {
			have := last & maxFill
			if uint64(have)+uint64(groups) <= uint64(maxFill) {
				v.words[n-1] = last + groups
				return
			}
			add := maxFill - have
			v.words[n-1] = last + add
			groups -= add
		} else if last&fillFlag == 0 {
			// A lone literal that happens to be all-zero / all-one can be
			// absorbed into a new fill.
			if (last == 0 && !b) || (last == allOnes && b) {
				v.words[n-1] = makeFill(b, 1)
				v.extendFill(b, groups)
				return
			}
		}
	}
	if groups > 0 {
		v.words = append(v.words, makeFill(b, groups))
	}
}

func makeFill(b bool, groups uint32) uint32 {
	w := fillFlag | groups
	if b {
		w |= fillOne
	}
	return w
}

// Count returns the number of set bits.
func (v *Vector) Count() uint64 {
	var c uint64
	for _, w := range v.words {
		if w&fillFlag != 0 {
			if w&fillOne != 0 {
				c += uint64(w&maxFill) * groupBits
			}
		} else {
			c += uint64(bits.OnesCount32(w))
		}
	}
	return c + uint64(bits.OnesCount32(v.act))
}

// Get reports the bit at position p. It decodes from the front and is
// intended for tests and spot checks, not bulk access.
func (v *Vector) Get(p uint64) bool {
	if p >= v.n {
		return false
	}
	var at uint64
	for _, w := range v.words {
		if w&fillFlag != 0 {
			span := uint64(w&maxFill) * groupBits
			if p < at+span {
				return w&fillOne != 0
			}
			at += span
		} else {
			if p < at+groupBits {
				return w&(1<<(p-at)) != 0
			}
			at += groupBits
		}
	}
	return v.act&(1<<(p-at)) != 0
}

// Iterate calls fn with the position of every set bit in increasing order.
// Iteration stops early if fn returns false.
func (v *Vector) Iterate(fn func(pos uint64) bool) {
	var at uint64
	for _, w := range v.words {
		if w&fillFlag != 0 {
			span := uint64(w&maxFill) * groupBits
			if w&fillOne != 0 {
				for p := at; p < at+span; p++ {
					if !fn(p) {
						return
					}
				}
			}
			at += span
		} else {
			g := w
			for g != 0 {
				b := uint64(bits.TrailingZeros32(g))
				if !fn(at + b) {
					return
				}
				g &= g - 1
			}
			at += groupBits
		}
	}
	g := v.act
	for g != 0 {
		b := uint64(bits.TrailingZeros32(g))
		if !fn(at + b) {
			return
		}
		g &= g - 1
	}
}

// Positions returns the positions of all set bits.
func (v *Vector) Positions() []uint64 {
	return v.PositionsIn(0, v.n)
}

// PositionsIn returns the positions of the set bits in [lo, hi), in
// order, or nil when there are none. It steps over the words before lo a
// word at a time and stops at hi, so a window costs the words up to its
// end and its own hits, not a call per set bit of the whole vector.
func (v *Vector) PositionsIn(lo, hi uint64) []uint64 {
	i, at := v.seek(lo)
	n := v.countIn(i, at, lo, hi)
	if n == 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	hi = min(hi, v.n)
	for _, w := range v.words[i:] {
		if at >= hi {
			return out
		}
		if w&fillFlag != 0 {
			span := uint64(w&maxFill) * groupBits
			if w&fillOne != 0 {
				for p := max(at, lo); p < min(at+span, hi); p++ {
					out = append(out, p)
				}
			}
			at += span
			continue
		}
		for g := windowGroup(w, at, lo, hi); g != 0; g &= g - 1 {
			out = append(out, at+uint64(bits.TrailingZeros32(g)))
		}
		at += groupBits
	}
	for g := windowGroup(v.act, at, lo, hi); g != 0; g &= g - 1 {
		out = append(out, at+uint64(bits.TrailingZeros32(g)))
	}
	return out
}

// OrInto ORs v's bits in [lo, hi) into s, bit p of v landing on bit p-lo
// of s, which holds at least hi-lo bits: the window decode of a query
// evaluation. Like PositionsIn it steps over the words before lo a word
// at a time and stops at hi; a one-fill sets its range a 64-bit word at a
// time.
func (v *Vector) OrInto(s *BitSet, lo, hi uint64) {
	hi = min(hi, v.n)
	if lo >= hi {
		return
	}
	i, at := v.seek(lo)
	for _, w := range v.words[i:] {
		if at >= hi {
			return
		}
		if w&fillFlag != 0 {
			span := uint64(w&maxFill) * groupBits
			if w&fillOne != 0 {
				s.setRange(max(at, lo)-lo, min(at+span, hi)-lo)
			}
			at += span
			continue
		}
		if at < lo || at+groupBits > hi {
			orWindowGroup(s, w, at, lo, hi)
		} else {
			s.orGroup(w, at-lo)
		}
		at += groupBits
	}
	orWindowGroup(s, v.act, at, lo, hi)
}

// orWindowGroup ORs the bits of literal group g, whose first bit is
// position at, that fall in [lo, hi) into s at their offset from lo.
func orWindowGroup(s *BitSet, g uint32, at, lo, hi uint64) {
	g = windowGroup(g, at, lo, hi)
	switch {
	case g == 0:
	case at < lo:
		s.orGroup(g>>(lo-at), 0)
	default:
		s.orGroup(g, at-lo)
	}
}

// seek returns the index of the first word that holds a position at or
// past lo, and that word's first position: len(v.words) and the tail's
// first position when lo is past every word.
func (v *Vector) seek(lo uint64) (i int, at uint64) {
	for ; i < len(v.words); i++ {
		span := uint64(groupBits)
		if w := v.words[i]; w&fillFlag != 0 {
			span *= uint64(w & maxFill)
		}
		if at+span > lo {
			break
		}
		at += span
	}
	return i, at
}

// countIn returns the number of set bits in [lo, hi), walking from word
// i, whose first position is at (what seek(lo) returns).
func (v *Vector) countIn(i int, at, lo, hi uint64) uint64 {
	hi = min(hi, v.n)
	if lo >= hi {
		return 0
	}
	var c uint64
	for _, w := range v.words[i:] {
		if at >= hi {
			return c
		}
		if w&fillFlag != 0 {
			span := uint64(w&maxFill) * groupBits
			if w&fillOne != 0 {
				c += min(at+span, hi) - max(at, lo)
			}
			at += span
			continue
		}
		c += uint64(bits.OnesCount32(windowGroup(w, at, lo, hi)))
		at += groupBits
	}
	return c + uint64(bits.OnesCount32(windowGroup(v.act, at, lo, hi)))
}

// windowGroup returns the literal group g, whose first bit is position
// at, with the bits outside [lo, hi) cleared; lo < at+31.
func windowGroup(g uint32, at, lo, hi uint64) uint32 {
	if at >= hi {
		return 0
	}
	if lo > at {
		g &= ^uint32(0) << (lo - at)
	}
	if hi-at < groupBits {
		g &= uint32(1)<<(hi-at) - 1
	}
	return g
}

// Equal reports whether two vectors have identical length and bits: the
// same count, all of it shared.
func (v *Vector) Equal(o *Vector) bool {
	c := v.Count()
	return v.n == o.n && c == o.Count() && v.AndCount(o.decode(o.n)) == c
}

// String renders a short human-readable summary for debugging.
func (v *Vector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Vector{n=%d, words=%d, ones=%d}", v.n, len(v.words), v.Count())
	return sb.String()
}

// Clone returns a deep, compact copy of the vector.
func (v *Vector) Clone() *Vector {
	w := &Vector{act: v.act, nact: v.nact, n: v.n}
	w.words = append(make([]uint32, 0, len(v.words)), v.words...)
	return w
}

// Window returns the bits of v in the 31-bit groups that cover positions
// [lo, hi), clipped to Len, as a compact vector, and the position of its
// first bit: lo rounded down to a group boundary. Bit i of the result is
// bit first+i of v, and the result ends at min(hi, Len()), so it covers
// [first, first+Len()). The words of those groups are copied as they
// are, with the fills at either edge trimmed to the window's groups, so
// a window decode of the result at [lo-first, hi-first) reads what one of
// v at [lo, hi) reads without stepping over the words before lo.
func (v *Vector) Window(lo, hi uint64) (*Vector, uint64) {
	hi = min(hi, v.n)
	lo = min(lo, hi)
	first := lo - lo%groupBits
	g0, g1 := first/groupBits, hi/groupBits // the result's whole groups
	i, at := v.seek(first)
	start := at / groupBits // word i's first group, at or before g0
	end, j := start, i      // words [i, j) cover groups [start, end) ⊇ [g0, g1)
	for ; g0 < g1 && end < g1; j++ {
		end += wordGroups(v.words[j])
	}
	out := &Vector{words: make([]uint32, j-i), n: hi - first}
	copy(out.words, v.words[i:j])
	if j > i { // only a fill can start before g0 or end past g1
		out.words[0] -= uint32(g0 - start)
		out.words[j-i-1] -= uint32(end - g1)
	}
	if rem := hi % groupBits; rem != 0 {
		// The partial last group g1: inside the last word copied when that
		// fill ran past g1, else the next word, else v's own partial group.
		g := v.act
		switch {
		case end > g1:
			g = groupOf(v.words[j-1])
		case j < len(v.words):
			g = groupOf(v.words[j])
		}
		out.act, out.nact = g&(uint32(1)<<rem-1), uint8(rem)
	}
	return out, first
}

// wordGroups returns the number of 31-bit groups an encoded word spans.
func wordGroups(w uint32) uint64 {
	if w&fillFlag != 0 {
		return uint64(w & maxFill)
	}
	return 1
}

// groupOf returns one group of an encoded word: a literal itself, or the
// fill's group of zeros or ones.
func groupOf(w uint32) uint32 {
	switch {
	case w&fillFlag == 0:
		return w
	case w&fillOne != 0:
		return allOnes
	}
	return 0
}
