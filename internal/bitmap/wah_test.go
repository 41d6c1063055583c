package bitmap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// refBits is the naive reference model: a plain []bool.
type refBits []bool

func (r refBits) count() uint64 {
	var c uint64
	for _, b := range r {
		if b {
			c++
		}
	}
	return c
}

func randomBits(rng *rand.Rand, n int, density float64) refBits {
	r := make(refBits, n)
	for i := range r {
		r[i] = rng.Float64() < density
	}
	return r
}

// clusteredBits produces runs of identical bits, the regime WAH targets.
func clusteredBits(rng *rand.Rand, n int) refBits {
	r := make(refBits, 0, n)
	cur := rng.Intn(2) == 0
	for len(r) < n {
		run := 1 + rng.Intn(200)
		for i := 0; i < run && len(r) < n; i++ {
			r = append(r, cur)
		}
		cur = !cur
	}
	return r
}

func toVector(r refBits) *Vector { return FromBools(r) }

func checkAgainstRef(t *testing.T, v *Vector, r refBits) {
	t.Helper()
	if v.Len() != uint64(len(r)) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(r))
	}
	if v.Count() != r.count() {
		t.Fatalf("Count = %d, want %d", v.Count(), r.count())
	}
	for i, b := range r {
		if v.Get(uint64(i)) != b {
			t.Fatalf("Get(%d) = %v, want %v", i, v.Get(uint64(i)), b)
		}
	}
}

func TestEmptyVector(t *testing.T) {
	v := New(0)
	if v.Len() != 0 || v.Count() != 0 {
		t.Fatalf("empty vector: Len=%d Count=%d", v.Len(), v.Count())
	}
	if got := v.Positions(); len(got) != 0 {
		t.Fatalf("empty vector Positions = %v", got)
	}
}

func TestAppendBitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 30, 31, 32, 62, 63, 100, 1000, 12345} {
		for _, d := range []float64{0, 0.01, 0.5, 0.99, 1} {
			r := randomBits(rng, n, d)
			checkAgainstRef(t, toVector(r), r)
		}
	}
}

func TestClusteredCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := clusteredBits(rng, 200000)
	v := toVector(r)
	checkAgainstRef(t, v, r)
	if v.Words() >= len(r)/31 {
		t.Fatalf("clustered data did not compress: %d words for %d bits", v.Words(), len(r))
	}
}

func TestAppendRun(t *testing.T) {
	v := New(0)
	v.AppendRun(false, 100)
	v.AppendRun(true, 62)
	v.AppendRun(false, 5)
	v.AppendBit(true)
	if v.Len() != 168 {
		t.Fatalf("Len = %d, want 168", v.Len())
	}
	if v.Count() != 63 {
		t.Fatalf("Count = %d, want 63", v.Count())
	}
	for i := uint64(0); i < 168; i++ {
		want := (i >= 100 && i < 162) || i == 167
		if v.Get(i) != want {
			t.Fatalf("Get(%d) = %v, want %v", i, v.Get(i), want)
		}
	}
}

func TestFromPositions(t *testing.T) {
	pos := []uint64{0, 5, 31, 62, 63, 999}
	v, err := FromPositions(1000, pos)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Positions(); len(got) != len(pos) {
		t.Fatalf("Positions = %v, want %v", got, pos)
	} else {
		for i := range pos {
			if got[i] != pos[i] {
				t.Fatalf("Positions[%d] = %d, want %d", i, got[i], pos[i])
			}
		}
	}
	if _, err := FromPositions(10, []uint64{11}); err == nil {
		t.Fatal("out-of-range position accepted")
	}
	if _, err := FromPositions(10, []uint64{3, 3}); err == nil {
		t.Fatal("duplicate position accepted")
	}
	if _, err := FromPositions(10, []uint64{5, 2}); err == nil {
		t.Fatal("descending positions accepted")
	}
}

func refOp(a, b refBits, f func(x, y bool) bool) refBits {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(refBits, n)
	for i := range out {
		var x, y bool
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		out[i] = f(x, y)
	}
	return out
}

func TestBooleanOpsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{0, 1, 31, 64, 500, 4096}
	for _, na := range sizes {
		for _, nb := range sizes {
			ra := randomBits(rng, na, 0.3)
			rb := clusteredBits(rng, nb)
			va, vb := toVector(ra), toVector(rb)

			checkAgainstRef(t, va.And(vb), refOp(ra, rb, func(x, y bool) bool { return x && y }))
			checkAgainstRef(t, OrAll([]*Vector{va, vb}), refOp(ra, rb, func(x, y bool) bool { return x || y }))

			// AND NOT as a refinement takes it: both decoded into sets as
			// long as the longer, the second inverted, ANDed, encoded.
			n := max(va.Len(), vb.Len())
			sa, sb := va.decode(n), vb.decode(n)
			sb.Invert()
			sa.AndWith(sb)
			checkAgainstRef(t, sa.ToVector(), refOp(ra, rb, func(x, y bool) bool { return x && !y }))
		}
	}
}

func TestNot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 31, 32, 93, 1000} {
		r := randomBits(rng, n, 0.4)
		want := make(refBits, n)
		for i := range r {
			want[i] = !r[i]
		}
		checkAgainstRef(t, not(toVector(r)), want)
	}
}

func TestDoubleNotIsIdentity(t *testing.T) {
	f := func(bs []bool) bool {
		v := FromBools(bs)
		return not(not(v)).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeMorganProperty(t *testing.T) {
	f := func(a, b []bool) bool {
		// Pad to equal lengths: Not is defined over a vector's own length,
		// so De Morgan only holds for operands of equal length.
		for len(a) < len(b) {
			a = append(a, false)
		}
		for len(b) < len(a) {
			b = append(b, false)
		}
		va, vb := FromBools(a), FromBools(b)
		lhs := not(va.And(vb))
		rhs := OrAll([]*Vector{not(va), not(vb)})
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountMatchesPositionsProperty(t *testing.T) {
	f := func(a []bool) bool {
		v := FromBools(a)
		return uint64(len(v.Positions())) == v.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOrAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var refs []refBits
	var vecs []*Vector
	acc := make(refBits, 777)
	for i := 0; i < 9; i++ {
		r := randomBits(rng, 777, 0.05)
		refs = append(refs, r)
		vecs = append(vecs, toVector(r))
		for j, b := range r {
			acc[j] = acc[j] || b
		}
	}
	checkAgainstRef(t, OrAll(vecs), acc)
	_ = refs

	if got := OrAll(nil); got.Len() != 0 {
		t.Fatalf("OrAll(nil).Len = %d", got.Len())
	}
	one := toVector(refBits{true, false, true})
	if !OrAll([]*Vector{one}).Equal(one) {
		t.Fatal("OrAll of one vector differs from it")
	}
}

func TestIterateEarlyStop(t *testing.T) {
	v, err := FromPositions(100, []uint64{3, 7, 50, 99})
	if err != nil {
		t.Fatal(err)
	}
	var seen []uint64
	v.Iterate(func(p uint64) bool {
		seen = append(seen, p)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 7 {
		t.Fatalf("early stop iterate saw %v", seen)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 31, 100, 5000} {
		r := clusteredBits(rng, n)
		v := toVector(r)
		var buf bytes.Buffer
		if _, err := v.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		var w Vector
		if _, err := w.ReadFrom(&buf); err != nil {
			t.Fatal(err)
		}
		if !w.Equal(v) {
			t.Fatalf("round trip mismatch for n=%d", n)
		}
		checkAgainstRef(t, &w, r)
	}
}

func TestSerializationRejectsCorruptHeader(t *testing.T) {
	var buf bytes.Buffer
	v := FromBools([]bool{true, false, true})
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8] = 31 // nact out of range
	var w Vector
	if _, err := w.ReadFrom(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupt nact accepted")
	}
	var short Vector
	if _, err := short.ReadFrom(bytes.NewReader(b[:4])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// rawVector hand-builds the serialized bytes of a vector.
func rawVector(n uint64, nact uint8, act uint32, nwords uint32, words ...uint32) []byte {
	b := binary.LittleEndian.AppendUint64(nil, n)
	b = append(b, nact)
	b = binary.LittleEndian.AppendUint32(b, act)
	b = binary.LittleEndian.AppendUint32(b, nwords)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

func TestReadFromRejectsGroupCountMismatch(t *testing.T) {
	for name, b := range map[string][]byte{
		"fill too long":      rawVector(62, 0, 0, 1, makeFill(true, 3)),
		"literals too few":   rawVector(93, 0, 0, 2, 5, 7),
		"nact is not n%31":   rawVector(62, 3, 0, 2, 5, 7),
		"fill of zero width": rawVector(31, 0, 0, 1, makeFill(false, 0)),
	} {
		var v Vector
		if _, err := v.ReadFrom(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var ok Vector
	if _, err := ok.ReadFrom(bytes.NewReader(rawVector(65, 3, 5, 2, 9, makeFill(false, 1)))); err != nil {
		t.Fatalf("consistent vector rejected: %v", err)
	}
}

func TestReadFromRejectsActBitsPastNact(t *testing.T) {
	var v Vector
	if _, err := v.ReadFrom(bytes.NewReader(rawVector(34, 3, 0b1001, 1, makeFill(true, 1)))); err == nil {
		t.Fatal("act with bit 3 set accepted for nact=3")
	}
}

// TestReadFromBoundsAllocation: a header promising 2^32-1 words over a
// stream of none fails on the missing bytes instead of allocating 16 GiB.
func TestReadFromBoundsAllocation(t *testing.T) {
	n := uint64(1) << 40
	var v Vector
	if _, err := v.ReadFrom(bytes.NewReader(rawVector(n, uint8(n%groupBits), 0, 1<<32-1))); err == nil {
		t.Fatal("truncated word stream accepted")
	}
}

func TestClone(t *testing.T) {
	v := FromBools([]bool{true, true, false, true})
	c := v.Clone()
	c.AppendBit(true)
	if v.Len() != 4 || c.Len() != 5 {
		t.Fatalf("clone not independent: v.Len=%d c.Len=%d", v.Len(), c.Len())
	}
}

// TestEncodeGroups: 31-bit groups — a literal, an all-zero and an
// all-one group, runs of them, and a partial last group — encode as the
// bits they hold, as BitSet.ToVector encodes them.
func TestEncodeGroups(t *testing.T) {
	v := encodeGroups([]uint32{0b101, 0, allOnes}, 93)
	if v.Len() != 93 {
		t.Fatalf("Len = %d, want 93", v.Len())
	}
	if v.Count() != 2+31 {
		t.Fatalf("Count = %d, want 33", v.Count())
	}
	w := encodeGroups([]uint32{allOnes, allOnes, 0, 0, 0b11}, 4*groupBits+1)
	want := make([]bool, 4*groupBits+1)
	for i := range want[:2*groupBits] {
		want[i] = true
	}
	want[4*groupBits] = true
	if !w.Equal(FromBools(want)) || w.Words() != 2 {
		t.Fatalf("runs and a partial group: %v (%d words)", w, w.Words())
	}
}

func TestLongFillRuns(t *testing.T) {
	// Exceed one fill word's capacity (2^30-1 groups).
	v := New(0)
	n := uint64(maxFill+10) * groupBits
	v.AppendRun(true, n)
	if v.Len() != n || v.Count() != n {
		t.Fatalf("long run: Len=%d Count=%d want %d", v.Len(), v.Count(), n)
	}
	if v.Words() != 2 {
		t.Fatalf("long run encoded in %d words, want 2", v.Words())
	}
}

func TestVectorString(t *testing.T) {
	v := FromBools([]bool{true, false})
	if s := v.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestAndCountMatchesAndProperty(t *testing.T) {
	f := func(a, b []bool) bool {
		va, vb := FromBools(a), FromBools(b)
		return va.AndCount(bitSetOf(vb)) == va.And(vb).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAndCountClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		ra := clusteredBits(rng, 5000)
		rb := clusteredBits(rng, 5000)
		va, vb := toVector(ra), toVector(rb)
		if va.AndCount(bitSetOf(vb)) != va.And(vb).Count() {
			t.Fatalf("trial %d: AndCount mismatch", trial)
		}
	}
	// Mismatched lengths: AND semantics zero-extend, so the count only
	// covers the overlap, whichever side is longer.
	short := toVector(refBits{true, true})
	long := toVector(refBits{true, true, true, true})
	if got := short.AndCount(bitSetOf(long)); got != 2 {
		t.Fatalf("short vector, long set: AndCount = %d", got)
	}
	if got := long.AndCount(bitSetOf(short)); got != 2 {
		t.Fatalf("long vector, short set: AndCount = %d", got)
	}
}

// TestBuiltVectorsAreCompact: the builders return words with no spare
// capacity, so SizeBytes — which counts capacity — is what a vector
// keeps. Ten positions over 300 000 rows once kept the 1 210 words New
// reserves for that many bits.
func TestBuiltVectorsAreCompact(t *testing.T) {
	pos := []uint64{3, 40, 41, 900, 5_000, 77_777, 150_000, 150_031, 299_000, 299_999}
	v, err := FromPositions(300_000, pos)
	if err != nil {
		t.Fatal(err)
	}
	dense := NewBitSet(300_000)
	for p := uint64(0); p < 300_000; p += 3 {
		dense.Set(p)
	}
	long := FromBools(make([]bool, 5000))
	for name, v := range map[string]*Vector{
		"FromPositions": v, "ToVector": dense.ToVector(), "And": v.And(long),
		"Clone": v.Clone(), "OrAll": OrAll([]*Vector{v, dense.ToVector(), long}), "FromBools": long,
	} {
		if cap(v.words) != len(v.words) || v.SizeBytes() < 4*cap(v.words) {
			t.Errorf("%s: %d words in %d of capacity, SizeBytes %d", name, len(v.words), cap(v.words), v.SizeBytes())
		}
	}
	if got, want := v.Positions(), pos; !slices.Equal(got, want) {
		t.Fatalf("positions %v, want %v", got, want)
	}
}
