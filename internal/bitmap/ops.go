package bitmap

import (
	"math"
	"math/bits"
)

// decoder walks the encoded words of a vector as a sequence of runs. A run
// is either cnt repetitions of an identical fill group (word is 0 or
// allOnes) or a stretch of cnt consecutive literal words (lits). The
// trailing partial group is surfaced as one final one-word literal run
// padded with zero bits. Past the end, the decoder reads as an endless
// zero fill, which is how a shorter operand is zero-extended. Moving from
// run to run stores no pointers, so the loops pay no GC write barriers.
type decoder struct {
	words  []uint32
	tail   []uint32 // partial trailing group, zero-padded; nil without one
	idx    int      // next word to load
	atTail bool     // the current run is the tail

	fill bool
	word uint32 // fill pattern of the current run
	lit  int    // index in words of the current literal run's next group
	cnt  uint64 // groups remaining in the current run
	end  bool
}

func newDecoder(v *Vector) decoder {
	d := decoder{words: v.words}
	if v.nact > 0 {
		d.tail = []uint32{v.act}
	}
	d.advance()
	return d
}

// advance loads the next run after the current one is consumed.
func (d *decoder) advance() {
	if d.idx < len(d.words) {
		w := d.words[d.idx]
		if w&fillFlag != 0 {
			d.idx++
			d.fill, d.word, d.cnt = true, 0, uint64(w&maxFill)
			if w&fillOne != 0 {
				d.word = allOnes
			}
			return
		}
		j := d.idx + 1
		for j < len(d.words) && d.words[j]&fillFlag == 0 {
			j++
		}
		d.fill, d.lit, d.cnt = false, d.idx, uint64(j-d.idx)
		d.idx = j
		return
	}
	if d.tail != nil && !d.atTail {
		d.fill, d.atTail, d.cnt = false, true, 1
		return
	}
	d.fill, d.word, d.cnt, d.end = true, 0, math.MaxUint64, true
}

// lits returns the next k groups of the current literal run (k <= cnt).
func (d *decoder) lits(k uint64) []uint32 {
	if d.atTail {
		return d.tail[:k]
	}
	return d.words[d.lit : d.lit+int(k)]
}

// consume drops k groups of the current run (k <= cnt).
func (d *decoder) consume(k uint64) {
	d.cnt -= k
	d.lit += int(k)
	if d.cnt == 0 {
		d.advance()
	}
}

// bitOp names one of the four binary group operations.
type bitOp uint8

const (
	opAnd bitOp = iota
	opOr
	opXor
	opAndNot
)

// apply combines two groups. binop calls it once per run that involves a
// fill, never per literal group: literal stretches go through
// Vector.combineLits.
func (op bitOp) apply(x, y uint32) uint32 {
	switch op {
	case opAnd:
		return x & y
	case opOr:
		return x | y
	case opXor:
		return x ^ y
	}
	return x &^ y
}

// binop applies op across two vectors run by run. The result has length
// max(a.Len(), b.Len()); the shorter operand is implicitly zero-extended,
// which matches the semantics needed by the index code (all index bitmaps
// for one column share the same length).
func binop(a, b *Vector, op bitOp) *Vector {
	n := maxU64(a.n, b.n)
	out := New(n)
	da, db := newDecoder(a), newDecoder(b)
	for !da.end || !db.end {
		k := minU64(da.cnt, db.cnt)
		switch {
		case da.fill && db.fill:
			out.emit(op.apply(da.word, db.word)&litMask, k)
		case !da.fill && !db.fill:
			out.combineLits(op, da.lits(k), db.lits(k))
		case da.fill:
			out.fillLits(op.apply(da.word, 0)&litMask, op.apply(da.word, litMask)&litMask, db.lits(k))
		default:
			out.fillLits(op.apply(0, db.word)&litMask, op.apply(litMask, db.word)&litMask, da.lits(k))
		}
		da.consume(k)
		db.consume(k)
	}
	out.n = n
	out.trim()
	out.Compact()
	return out
}

// combineLits appends op applied to two equal-length literal stretches,
// one loop per op so the dense case pays no per-group dispatch.
func (v *Vector) combineLits(op bitOp, xs, ys []uint32) {
	ys = ys[:len(xs)]
	switch op {
	case opAnd:
		for i, x := range xs {
			v.flushGroup(x & ys[i])
		}
	case opOr:
		for i, x := range xs {
			v.flushGroup(x | ys[i])
		}
	case opXor:
		for i, x := range xs {
			v.flushGroup(x ^ ys[i])
		}
	default:
		for i, x := range xs {
			v.flushGroup(x &^ ys[i])
		}
	}
}

// fillLits appends what a fill makes of a literal stretch under some op,
// given the op's result r0 against an all-zero group and r1 against an
// all-one group: equal, the stretch collapses into a fill; otherwise every
// literal is copied (r1 is all ones) or complemented.
func (v *Vector) fillLits(r0, r1 uint32, lits []uint32) {
	switch {
	case r0 == r1:
		v.emit(r0, uint64(len(lits)))
	case r1 != 0:
		for _, x := range lits {
			v.flushGroup(x)
		}
	default:
		for _, x := range lits {
			v.flushGroup(^x & litMask)
		}
	}
}

// emit appends cnt copies of group w, using fills when uniform. It does
// not touch v.n.
func (v *Vector) emit(w uint32, cnt uint64) {
	switch w {
	case 0:
		v.appendFill(false, cnt)
	case allOnes:
		v.appendFill(true, cnt)
	default:
		for ; cnt > 0; cnt-- {
			v.words = append(v.words, w)
		}
	}
}

// trim re-derives the active-word representation so that the encoded
// length matches n exactly: the operations emit whole groups, so when n is
// not a multiple of 31 the final group must be moved back into act.
func (v *Vector) trim() {
	rem := v.n % groupBits
	if rem == 0 {
		v.act, v.nact = 0, 0
		return
	}
	// The final group was emitted as a whole; pull it back out.
	n := len(v.words)
	last := v.words[n-1]
	if last&fillFlag != 0 {
		cnt := last & maxFill
		var g uint32
		if last&fillOne != 0 {
			g = allOnes
		}
		if cnt == 1 {
			v.words = v.words[:n-1]
		} else {
			v.words[n-1] = last - 1
		}
		v.act = g & (uint32(1)<<rem - 1)
	} else {
		v.words = v.words[:n-1]
		v.act = last & (uint32(1)<<rem - 1)
	}
	v.nact = uint8(rem)
}

// And returns the bitwise AND of v and o.
func (v *Vector) And(o *Vector) *Vector { return binop(v, o, opAnd) }

// Or returns the bitwise OR of v and o.
func (v *Vector) Or(o *Vector) *Vector { return binop(v, o, opOr) }

// Xor returns the bitwise XOR of v and o.
func (v *Vector) Xor(o *Vector) *Vector { return binop(v, o, opXor) }

// AndNot returns v AND NOT o.
func (v *Vector) AndNot(o *Vector) *Vector { return binop(v, o, opAndNot) }

// AndCount returns the number of ones in v AND o without materialising
// the result vector — the hot operation of bitmap-count histograms, where
// only the cardinality of each intersection is needed.
func (v *Vector) AndCount(o *Vector) uint64 {
	var count uint64
	da, db := newDecoder(v), newDecoder(o)
	for !da.end && !db.end {
		k := minU64(da.cnt, db.cnt)
		switch {
		case da.fill && db.fill:
			if w := da.word & db.word; w != 0 {
				count += k * uint64(bits.OnesCount32(w))
			}
		case !da.fill && !db.fill:
			ys := db.lits(k)
			for i, x := range da.lits(k) {
				count += uint64(bits.OnesCount32(x & ys[i]))
			}
		case da.fill:
			if da.word != 0 {
				for _, y := range db.lits(k) {
					count += uint64(bits.OnesCount32(y))
				}
			}
		default:
			if db.word != 0 {
				for _, x := range da.lits(k) {
					count += uint64(bits.OnesCount32(x))
				}
			}
		}
		da.consume(k)
		db.consume(k)
	}
	return count
}

// OrAll computes the OR of many vectors; the result has the length of the
// longest. Two strategies, chosen by how many words each would visit,
// read off the inputs: a pairwise tree of Or visits every input word once
// per level, ⌈log₂ k⌉ levels, and wins when the inputs are mostly fills
// (bins of a column stored in value order, a distribution's sparse tail);
// decoding every input once into one group accumulator visits every input
// word once plus every output group, and wins when literal words are a
// large share of the output's groups (bins of a column uncorrelated with
// row order, the FastBit strategy).
func OrAll(vs []*Vector) *Vector {
	switch len(vs) {
	case 0:
		return New(0)
	case 1:
		return vs[0].Clone()
	}
	var n, words uint64
	for _, v := range vs {
		n = maxU64(n, v.n)
		words += uint64(len(v.words))
	}
	if depth := uint64(bits.Len(uint(len(vs) - 1))); n/groupBits <= words*depth {
		return orAllDense(vs, n)
	}
	return orAllTree(vs)
}

// orAllTree combines two or more vectors pairwise in a balanced tree, which
// keeps the intermediate results small when the inputs are sparse.
func orAllTree(vs []*Vector) *Vector {
	if len(vs) == 1 {
		return vs[0] // a leaf: Or never modifies its operands
	}
	mid := len(vs) / 2
	return orAllTree(vs[:mid]).Or(orAllTree(vs[mid:]))
}

// orAllDense ORs every input into one uncompressed group accumulator of n
// bits — one-fills set their range, zero-fills are skipped, literals are
// ORed in — and encodes the accumulator once.
func orAllDense(vs []*Vector, n uint64) *Vector {
	acc := make([]uint32, (n+groupBits-1)/groupBits)
	for _, v := range vs {
		g := 0
		for _, w := range v.words {
			if w&fillFlag == 0 {
				acc[g] |= w
				g++
				continue
			}
			cnt := int(w & maxFill)
			if w&fillOne != 0 {
				ones := acc[g : g+cnt]
				for i := range ones {
					ones[i] = allOnes
				}
			}
			g += cnt
		}
		if v.nact > 0 {
			acc[g] |= v.act
		}
	}
	return encodeGroups(acc, n)
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

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
