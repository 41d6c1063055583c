package bitmap

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// fuzzMaxBits caps each fuzzed vector so the []bool oracle stays small.
const fuzzMaxBits = 1 << 16

// fuzzVectors decodes data into 2–4 vectors and their []bool oracles. The
// first byte picks the count; every further byte extends vector i%k, by
// its top two bits:
//
//	00  six literal bits, LSB first
//	01  a run of 1–64 ones
//	10  a run of 1–64 zeros
//	11  a long run, bit 5 its value, (low five bits + 1) × 496 bits
//
// so lengths differ, are rarely multiples of 31, and fills span many
// groups from unaligned starts.
func fuzzVectors(data []byte) ([]*Vector, [][]bool) {
	if len(data) == 0 {
		return nil, nil
	}
	k := 2 + int(data[0]%3)
	vs := make([]*Vector, k)
	refs := make([][]bool, k)
	for i := range vs {
		vs[i] = New(0)
	}
	for i, b := range data[1:] {
		v, ref := vs[i%k], &refs[i%k]
		if v.Len() > fuzzMaxBits {
			continue
		}
		run := func(bit bool, n int) {
			v.AppendRun(bit, uint64(n))
			for j := 0; j < n; j++ {
				*ref = append(*ref, bit)
			}
		}
		switch b >> 6 {
		case 0:
			for j := 0; j < 6; j++ {
				bit := b&(1<<j) != 0
				v.AppendBit(bit)
				*ref = append(*ref, bit)
			}
		case 1:
			run(true, int(b&63)+1)
		case 2:
			run(false, int(b&63)+1)
		default:
			run(b&32 != 0, (int(b&31)+1)*16*groupBits)
		}
	}
	return vs, refs
}

// checkBits compares v with its oracle in one pass and checks that v
// survives the strict reader.
func checkBits(t *testing.T, what string, v *Vector, ref []bool) {
	t.Helper()
	if v.Len() != uint64(len(ref)) {
		t.Fatalf("%s: Len = %d, want %d", what, v.Len(), len(ref))
	}
	var want []uint64
	for i, b := range ref {
		if b {
			want = append(want, uint64(i))
		}
	}
	got := v.Positions()
	if uint64(len(got)) != v.Count() || len(got) != len(want) {
		t.Fatalf("%s: %d positions, Count %d, want %d", what, len(got), v.Count(), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d = %d, want %d", what, i, got[i], want[i])
		}
	}
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var back Vector
	if _, err := back.ReadFrom(&buf); err != nil {
		t.Fatalf("%s: result rejected by ReadFrom: %v", what, err)
	}
}

func boolOp(a, b []bool, f func(x, y bool) bool) []bool {
	n := max(len(a), len(b))
	out := make([]bool, n)
	for i := range out {
		out[i] = f(i < len(a) && a[i], i < len(b) && b[i])
	}
	return out
}

// iterateIn is the windowed walk PositionsIn replaces: every set bit
// through Iterate, filtered to [lo, hi).
func iterateIn(v *Vector, lo, hi uint64) []uint64 {
	var out []uint64
	v.Iterate(func(p uint64) bool {
		if p >= hi {
			return false
		}
		if p >= lo {
			out = append(out, p)
		}
		return true
	})
	return out
}

// windows returns row windows over a vector of n bits: the whole vector,
// its thirds, empty ones (lo == hi, and lo > hi), one-bit ones, windows
// past the end, windows inside the longest run of ones, and a few
// windows drawn from data.
func windows(ref []bool, data []byte) [][2]uint64 {
	n := uint64(len(ref))
	ws := [][2]uint64{{0, n}, {0, n / 3}, {n / 3, 2 * n / 3}, {2 * n / 3, n}, {n / 2, n / 2},
		{2 * n / 3, n / 3}, {n / 2, n/2 + 1}, {n, n + 40}, {n / 4, n + 100}, {0, 0}}
	start, best := 0, 0
	for i, run := 0, 0; i < len(ref); i++ {
		if run = 0; ref[i] {
			for j := i; j < len(ref) && ref[j]; j++ {
				run++
			}
			if run > best {
				start, best = i, run
			}
			i += run
		}
	}
	if best > 0 {
		s, e := uint64(start), uint64(start+best)
		mid := s + (e-s)/2
		ws = append(ws, [2]uint64{s, e}, [2]uint64{mid, mid}, [2]uint64{mid, mid + 1},
			[2]uint64{s + (e-s)/3, e - (e-s)/3}, [2]uint64{mid, e + 70})
	}
	for i := 1; i+1 < len(data) && i < 9; i += 2 {
		lo := uint64(data[i]) * n / 256
		ws = append(ws, [2]uint64{lo, lo + uint64(data[i+1])%97})
	}
	return ws
}

// checkWindows compares PositionsIn and the window decode OrInto
// on every window with the filtered Iterate walk, and checks that the
// decoded window encodes back to the oracle's bits.
func checkWindows(t *testing.T, what string, v *Vector, ref []bool, data []byte) {
	t.Helper()
	for _, w := range windows(ref, data) {
		want := iterateIn(v, w[0], w[1])
		got := v.PositionsIn(w[0], w[1])
		if len(got) != len(want) {
			t.Fatalf("%s.PositionsIn(%d, %d) of %d bits: %d positions, want %d", what, w[0], w[1], v.Len(), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s.PositionsIn(%d, %d): position %d = %d, want %d", what, w[0], w[1], i, got[i], want[i])
			}
		}
		if w[0] > w[1] {
			continue
		}
		s := NewBitSet(w[1] - w[0])
		v.OrInto(s, w[0], w[1])
		got = s.Positions(w[0])
		if len(got) != len(want) || s.Any() != (len(want) > 0) {
			t.Fatalf("%s.OrInto(%d, %d) of %d bits: %d positions (Any %v), want %d", what, w[0], w[1], v.Len(), len(got), s.Any(), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s.OrInto(%d, %d): position %d = %d, want %d", what, w[0], w[1], i, got[i], want[i])
			}
		}
		win := make([]bool, w[1]-w[0])
		for i := range win {
			win[i] = w[0]+uint64(i) < uint64(len(ref)) && ref[w[0]+uint64(i)]
		}
		checkBits(t, fmt.Sprintf("%s.OrInto(%d, %d).ToVector", what, w[0], w[1]), s.ToVector(), win)
		checkWindowCut(t, what, v, ref, w[0], w[1], s)
	}
}

// checkWindowCut checks the cut v.Window(lo, hi): it starts at lo's group
// boundary, ends at hi clipped to Len, holds exactly the oracle's bits
// there in compact words, and its window decode at [lo, hi) translated by
// its first position equals want, v's own decode at [lo, hi).
func checkWindowCut(t *testing.T, what string, v *Vector, ref []bool, lo, hi uint64, want *BitSet) {
	t.Helper()
	cut, first := v.Window(lo, hi)
	end := min(hi, v.Len())
	if at := min(lo, end); first != at-at%groupBits || cut.Len() != end-first {
		t.Fatalf("%s.Window(%d, %d) of %d bits covers [%d, %d)", what, lo, hi, v.Len(), first, first+cut.Len())
	}
	if cap(cut.words) != len(cut.words) {
		t.Fatalf("%s.Window(%d, %d): %d words in %d of capacity", what, lo, hi, len(cut.words), cap(cut.words))
	}
	checkBits(t, fmt.Sprintf("%s.Window(%d, %d)", what, lo, hi), cut, ref[first:end])
	got := NewBitSet(hi - lo)
	cut.OrInto(got, lo-first, hi-first)
	if a, b := got.Positions(lo), want.Positions(lo); len(a) != len(b) || len(a) > 0 && !slices.Equal(a, b) {
		t.Fatalf("%s.Window(%d, %d) decodes %v, the whole vector %v", what, lo, hi, a, b)
	}
}

// countOracle returns the number of positions in [lo, hi) set in ref.
func countOracle(ref []bool, lo, hi uint64) uint64 {
	var c uint64
	for p := lo; p < min(hi, uint64(len(ref))); p++ {
		if ref[p] {
			c++
		}
	}
	return c
}

// FuzzWAHOps checks every surviving operation against the []bool oracle
// on vectors of unequal, unaligned lengths: And, Not through a BitSet,
// OrAll (in either input order), Equal, AndCount against sets shorter
// than, as long as and longer than the vector, ending inside a group, and
// BitSet.countRange over every window; the BitSet encoder (ToVector); the
// windowed walks, PositionsIn and the window decode OrInto, against a
// filtered Iterate on every operand and result; and the cut Window
// against the oracle and OrInto, on windows aligned and not, inside and
// at the edges of fills of either kind, and over the partial tail group.
// Seeds: testdata/fuzz/FuzzWAHOps.
func FuzzWAHOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		vs, refs := fuzzVectors(data)
		if len(vs) == 0 {
			return
		}
		a, b, ra, rb := vs[0], vs[1], refs[0], refs[1]
		for i, v := range vs {
			checkWindows(t, fmt.Sprintf("vs[%d]", i), v, refs[i], data)
			checkBits(t, fmt.Sprintf("vs[%d] through BitSet", i), bitSetOf(v).ToVector(), refs[i])
		}
		and := boolOp(ra, rb, func(x, y bool) bool { return x && y })
		checkWindows(t, "And", a.And(b), and, data)
		checkBits(t, "And", a.And(b), and)
		checkWindows(t, "Not", not(a), boolOp(ra, ra, func(x, _ bool) bool { return !x }), data)
		checkBits(t, "Not", not(a), boolOp(ra, ra, func(x, _ bool) bool { return !x }))
		if got, want := a.Equal(b), slices.Equal(ra, rb); got != want {
			t.Fatalf("Equal = %v, want %v", got, want)
		}
		if !a.Equal(a.Clone()) || !a.Equal(bitSetOf(a).ToVector()) {
			t.Fatal("a vector differs from its copy or its re-encoding")
		}

		// AndCount: b's bits in sets of every length around a's.
		for _, n := range []uint64{0, a.Len() / 2, a.Len() - a.Len()%groupBits + 7, a.Len(), b.Len(), max(a.Len(), b.Len()) + 45} {
			s := NewBitSet(n)
			b.OrInto(s, 0, n)
			if got, want := a.AndCount(s), countOracle(and, 0, n); got != want {
				t.Fatalf("AndCount against %d bits of b = %d, want %d", n, got, want)
			}
		}
		sa := bitSetOf(a)
		for _, w := range windows(ra, data) {
			if got, want := sa.countRange(w[0], w[1]), countOracle(ra, w[0], w[1]); got != want {
				t.Fatalf("countRange(%d, %d) of %d bits = %d, want %d", w[0], w[1], sa.Len(), got, want)
			}
		}

		var union []bool
		for i := range vs {
			union = boolOp(union, refs[i], func(x, y bool) bool { return x || y })
		}
		checkBits(t, "OrAll", OrAll(vs), union)
		slices.Reverse(vs)
		checkBits(t, "OrAll reversed", OrAll(vs), union)
	})
}

// FuzzVectorReadFrom: any byte stream either fails to decode or yields a
// vector that writes back to exactly the bytes read and whose Count
// matches its positions. Reading allocates in proportion to the bytes the
// stream holds, whatever its header claims. Seeds: what WriteTo makes of a
// few vectors, and the hand-built ones in testdata/fuzz/FuzzVectorReadFrom.
func FuzzVectorReadFrom(f *testing.F) {
	for _, v := range []*Vector{New(0), FromBools([]bool{true, false, true}), ones(100), ones(62)} {
		var buf bytes.Buffer
		if _, err := v.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v Vector
		read, err := v.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := v.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data[:read]) {
			t.Fatalf("round trip differs:\n got % x\nwant % x", buf.Bytes(), data[:read])
		}
		if v.Len() <= fuzzMaxBits {
			if got := uint64(len(v.Positions())); got != v.Count() {
				t.Fatalf("Count = %d, %d positions", v.Count(), got)
			}
		}
	})
}

func ones(n uint64) *Vector {
	v := New(n)
	v.AppendRun(true, n)
	return v
}
