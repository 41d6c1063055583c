package plan

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/fastquery"
	"repro/internal/histogram"
)

// overWire is r as the frontend receives it: framed and decoded.
func overWire(t testing.TB, r *FragmentResult) *FragmentResult {
	t.Helper()
	enc, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got FragmentResult
	if err := got.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	return &got
}

// sealed frames a body.
func sealed(body ...[]byte) []byte {
	return seal(append([]byte{frameVersion}, bytes.Join(body, nil)...))
}

func uv(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// histSeeds are FuzzHistWire's seeds, each a 1D or 2D payload, as the
// Hist1 or Hist2 of an otherwise empty result body.
func histSeeds() [][]byte {
	str := histogram.AppendString
	floats := func(b []byte, vs []float64) []byte {
		b = binary.AppendUvarint(b, uint64(len(vs)))
		for _, v := range vs {
			b = histogram.AppendFloat(b, v)
		}
		return b
	}
	w1 := func(bins int, cells ...byte) []byte {
		return append(floats(str(nil, "x"), histogram.UniformEdges(0, 1, bins)), cells...)
	}
	w2 := func(nx, ny int, cells ...byte) []byte {
		b := floats(floats(str(str(nil, "x"), "px"), histogram.UniformEdges(0, 1, nx)), histogram.UniformEdges(-1, 1, ny))
		return append(b, cells...)
	}
	xy := str(str(nil, "x"), "y")
	as1 := func(p []byte) []byte { return bytes.Join([][]byte{uv(0, 0, 1), p, uv(0, 0)}, nil) }
	as2 := func(p []byte) []byte { return bytes.Join([][]byte{uv(0, 0, 0, 1), p, uv(0)}, nil) }
	return [][]byte{
		as1(nil), as2(nil),
		as1(w1(2, uv(2, 1, 1, 1, 1, 1, 1, 0)...)),
		as1(w1(4, uv(4, 5, 1, 0)...)),
		as1(w1(4, uv(4, 2, 1, 0, 3)...)),
		as1(w1(4, uv(4, 1, 0, 0)...)),
		as1(append(w1(4, uv(4, 1, 3, 0)...), 7)),
		as1(w1(4, uv(5, 0)...)),
		as1(w1(4)),
		as1(w1(4, 4, 0x81, 0x00, 1, 0)),
		as1(append(floats(str(nil, "x"), []float64{0}), uv(0)...)),
		as1(append(str(nil, "x"), uv(histogram.MaxBins1D+2)...)),
		as2(append(xy, uv(histogram.MaxBins2D+2)...)),
		as2(append(xy, uv(5, 0)...)),
		as1(uv(9, 'x')),
		as2(w2(2, 3, uv(6, 6, 1, 1, 1, 0)...)),
		as1(w1(4, uv(4, 1, 3)...)),
		as1(w1(4, uv(4, 1, 3, 2, 200, 0)...)),
		as2(w2(3, 2, uv(6, 2, 1, 4, 1<<40, 0)...)),
		as2(w2(histogram.MaxBins2D, histogram.MaxBins2D, uv(histogram.MaxBins2D*histogram.MaxBins2D, 0)...)),
	}
}

// frameFixture has every field group populated, NaN, ±Inf and -0 among
// its floats.
func frameFixture() *FragmentResult {
	return &FragmentResult{
		Count: 7,
		MinMax: []VarRange{
			{Var: "x", Lo: -1.5, Hi: 2, N: 7},
			{Var: "px", Lo: math.NaN(), Hi: math.Inf(1), N: 3},
			{Var: "py", Lo: math.Copysign(0, -1), Hi: 0, N: 1},
		},
		Hist1: (&histogram.Hist1D{Var: "x", Edges: []float64{math.Copysign(0, -1), 0.5, 1}, Counts: []uint64{3, 4}}).Cells(),
		Hist2: (&histogram.Hist2D{XVar: "x", YVar: "px",
			XEdges: []float64{0, 1, 2}, YEdges: []float64{math.Inf(-1), 0, 1},
			Counts: []uint64{1, 2, 0, 1}}).Cells(),
		Sel: []uint64{0, 3, 5, 7, 11, 13, 1 << 62},
	}
}

// malformedFrames is every way a frame is refused that the CRC alone does
// not explain.
func malformedFrames() map[string][]byte {
	good := must(frameFixture().MarshalBinary())
	version := bytes.Clone(good[:len(good)-4])
	version[0] = frameVersion + 1
	return map[string][]byte{
		"empty":                nil,
		"bad checksum":         append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]^1),
		"truncated trailer":    good[:len(good)-2],
		"wrong version":        seal(version),
		"non-ascending sel":    sealed(uv(0, 0, 0, 0, 3, 5, 0, 2)),
		"sel past the max":     sealed(uv(0, 0, 0, 0, 2, math.MaxUint64, 1)),
		"sel past the payload": sealed(uv(0, 0, 0, 0, 4, 1)),
		"presence flag 2":      sealed(uv(0, 0, 2)),
		"ranges past payload":  sealed(uv(0, 1), histogram.AppendString(nil, "x")),
		"byte left over":       sealed(uv(0, 0, 0, 0, 0, 0)),
		"no body":              sealed(),
	}
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// TestFrameRoundTrip: a result crosses gob as its frame, every field bit
// for bit, and its histograms arrive as cells.
func TestFrameRoundTrip(t *testing.T) {
	type reply struct{ Result *FragmentResult }
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(reply{frameFixture()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), must(frameFixture().MarshalBinary())) {
		t.Fatal("gob did not carry the frame")
	}
	var got reply
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if a, b := resultBits(frameFixture()), resultBits(got.Result); a != b {
		t.Fatalf("sent\n%s\nreceived\n%s", a, b)
	}
}

// TestFrameRefusesMalformed: every malformed frame fails to decode, and
// each refusal counts in shard_reply_corrupt_total.
func TestFrameRefusesMalformed(t *testing.T) {
	for name, data := range malformedFrames() {
		before := metricReplyCorrupt.Load()
		if err := new(FragmentResult).UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decoded", name)
		} else if !strings.Contains(err.Error(), "corrupt result frame") {
			t.Errorf("%s: %v", name, err)
		}
		if metricReplyCorrupt.Load() == before {
			t.Errorf("%s: refusal not counted", name)
		}
	}
	if _, err := (&FragmentResult{Sel: []uint64{4, 4}}).MarshalBinary(); err == nil {
		t.Error("encoded repeated positions")
	}
}

// FuzzExecFrame: arbitrary bytes, as a frame and sealed into one, either
// fail to decode or decode to a result that re-encodes to exactly those
// bytes, never panicking and allocating at most twice the payload plus
// 4 KiB beyond the fixed-width slots of the decoded ranges and positions
// (a position takes one byte on the wire and eight decoded). And a result
// drawn from the bytes — NaN, ±Inf and -0 floats, nil and empty slices,
// dense and decoded histograms — survives encode → decode bit for bit.
func FuzzExecFrame(f *testing.F) {
	f.Add(must(frameFixture().MarshalBinary()))
	for _, data := range malformedFrames() {
		f.Add(data)
	}
	for _, body := range histSeeds() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, sealed(data)} {
			var res FragmentResult
			err := res.UnmarshalBinary(frame)
			limit := 2*len(frame) + 4096 + 8*len(res.Sel) + int(unsafe.Sizeof(VarRange{}))*len(res.MinMax)
			if alloc := decodeAlloc(frame); alloc > uint64(limit) {
				t.Fatalf("decoding %d bytes allocated %d", len(frame), alloc)
			}
			if err != nil {
				continue
			}
			if got, err := res.MarshalBinary(); err != nil || !bytes.Equal(got, frame) {
				t.Fatalf("decoded %x re-encodes to %x (%v)", frame, got, err)
			}
		}

		rng := rand.New(rand.NewSource(int64(len(data))))
		for _, b := range data {
			rng.Seed(rng.Int63() ^ int64(b))
		}
		want := randomResult(t, rng)
		got := overWire(t, want)
		if a, b := resultBits(want), resultBits(got); a != b {
			t.Fatalf("sent\n%s\nreceived\n%s", a, b)
		}
	})
}

// FuzzFragmentFrame is FuzzExecFrame for the fragment a shard reads off
// the wire: arbitrary bytes, as a frame and sealed into one, either fail
// to decode or re-encode to exactly those bytes, allocating in proportion
// to them. A fragment drawn from the bytes — NaN, ±Inf and -0 floats,
// nil and empty Vars, cut lists valid or not — survives encode → decode
// bit for bit when its cut lists are valid, and is refused when one is
// not: not strictly increasing, not from 0 to the fine bin count, or
// longer than bins + 1.
func FuzzFragmentFrame(f *testing.F) {
	for _, g := range fragmentFixtures() {
		f.Add(must(g.MarshalBinary()))
	}
	f.Add([]byte{})
	f.Add(sealed(uv(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, sealed(data)} {
			var g Fragment
			err := g.UnmarshalBinary(frame)
			if alloc := fragmentAlloc(frame); alloc > uint64(32*len(frame)+4096) {
				t.Fatalf("decoding %d bytes allocated %d", len(frame), alloc)
			}
			if err != nil {
				continue
			}
			if got, err := g.MarshalBinary(); err != nil || !bytes.Equal(got, frame) {
				t.Fatalf("decoded %x re-encodes to %x (%v)", frame, got, err)
			}
		}

		rng := rand.New(rand.NewSource(int64(len(data))))
		for _, b := range data {
			rng.Seed(rng.Int63() ^ int64(b))
		}
		want := randomFragment(rng)
		var got Fragment
		err := got.UnmarshalBinary(must(want.MarshalBinary()))
		valid := validCuts(want.Spec1.Cuts, want.Spec1.Bins) && validCuts(want.Spec2.XCuts, want.Spec2.XBins) &&
			validCuts(want.Spec2.YCuts, want.Spec2.YBins)
		switch {
		case !valid && err == nil:
			t.Fatalf("decoded invalid cuts %v %v %v", want.Spec1.Cuts, want.Spec2.XCuts, want.Spec2.YCuts)
		case valid && err != nil:
			t.Fatalf("refused %s: %v", fragmentBits(want), err)
		case valid && fragmentBits(got) != fragmentBits(want):
			t.Fatalf("sent\n%s\nreceived\n%s", fragmentBits(want), fragmentBits(got))
		}
	})
}

// fragmentFixtures are fragments of every op, adaptive cuts and -0 bounds
// among them.
func fragmentFixtures() []Fragment {
	negZero := math.Copysign(0, -1)
	return []Fragment{
		{Op: FragHist1D, Dataset: "lwfa", Step: 3, Rows: RowRange{10, 90}, Query: "(px > 0)",
			Spec1: histogram.Spec1D{Var: "x", Bins: 4, Binning: histogram.Adaptive, Lo: negZero, Hi: 1,
				MinDensity: 0.5, Cuts: []int{0, 3, 17, 32}}},
		{Op: FragHist2D, Step: -1, Spec2: histogram.NewSpec2D("x", "px", 2, 3).WithXRange(negZero, 1).
			WithYRange(math.Inf(-1), math.NaN()).WithBinning(histogram.Adaptive)},
		{Op: FragMinMax, Vars: []string{"x", "", "px"}, Spec1: histogram.NewSpec1D("x", 2)},
		{Op: FragSelect, Rows: RowRange{1 << 40, math.MaxUint64}},
	}
}

// validCuts is the cut-list rule the decoder enforces, stated apart from
// it: none, or strictly increasing from 0 to AdaptiveRefine·bins with at
// most bins + 1 entries.
func validCuts(cuts []int, bins int) bool {
	if len(cuts) == 0 {
		return true
	}
	if cuts[0] != 0 || cuts[len(cuts)-1] != bins*histogram.AdaptiveRefine || len(cuts) > bins+1 {
		return false
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			return false
		}
	}
	return true
}

// randomFragment draws a fragment whose every field may be set, its cut
// lists valid, empty or broken in one of the ways the decoder refuses.
func randomFragment(rng *rand.Rand) Fragment {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.MaxFloat64}
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	str := func() string { return strings.Repeat("v", rng.Intn(3)) }
	cuts := func(bins int) []int {
		if rng.Intn(3) == 0 {
			return nil
		}
		fine := bins * histogram.AdaptiveRefine
		c := []int{0}
		for i := 1; i < fine; i++ {
			if rng.Intn(fine) < bins {
				c = append(c, i)
			}
		}
		c = append(c, fine)
		switch rng.Intn(8) {
		case 0: // repeat a cut
			i := rng.Intn(len(c))
			c = slices.Insert(c, i, c[i])
		case 1: // start past 0
			c[0] = 1 + rng.Intn(3)
		case 2: // end off the fine grid
			c[len(c)-1] += 1 - 2*rng.Intn(2)
		case 3: // one cut per fine bin, more than bins + 1
			c = c[:1]
			for i := 1; i <= fine; i++ {
				c = append(c, i)
			}
		}
		return c
	}
	g := Fragment{
		Op: FragOp(rng.Intn(6)), Dataset: str(), Step: rng.Intn(5) - 1, Query: str(),
		Rows:    RowRange{rng.Uint64() >> rng.Intn(64), rng.Uint64() >> rng.Intn(64)},
		Backend: fastquery.Backend(rng.Intn(3)),
		Spec1: histogram.Spec1D{Var: str(), Bins: 1 + rng.Intn(8), Binning: histogram.Binning(rng.Intn(2)),
			Lo: float(), Hi: float(), MinDensity: float()},
		Spec2: histogram.Spec2D{XVar: str(), YVar: str(), XBins: 1 + rng.Intn(8), YBins: 1 + rng.Intn(8),
			Binning: histogram.Binning(rng.Intn(2)), XLo: float(), XHi: float(), YLo: float(), YHi: float(),
			MinDensity: float()},
	}
	g.Spec1.Cuts, g.Spec2.XCuts, g.Spec2.YCuts = cuts(g.Spec1.Bins), cuts(g.Spec2.XBins), cuts(g.Spec2.YBins)
	switch rng.Intn(3) {
	case 1:
		g.Vars = []string{}
	case 2:
		for i := rng.Intn(4); i >= 0; i-- {
			g.Vars = append(g.Vars, str())
		}
	}
	return g
}

// fragmentBits renders every field of g with floats as their bits; a nil
// and an empty slice render alike.
func fragmentBits(g Fragment) string {
	s1, s2 := g.Spec1, g.Spec2
	var b strings.Builder
	fmt.Fprintf(&b, "%v %q %d %+v %q %v %q\n", g.Op, g.Dataset, g.Step, g.Rows, g.Query, g.Backend, g.Vars)
	fmt.Fprintf(&b, "%q %d %v %v\n", s1.Var, s1.Bins, s1.Binning, s1.Cuts)
	fmt.Fprintf(&b, "%q %q %d %d %v %v %v\n", s2.XVar, s2.YVar, s2.XBins, s2.YBins, s2.Binning, s2.XCuts, s2.YCuts)
	for _, v := range []float64{s1.Lo, s1.Hi, s1.MinDensity, s2.XLo, s2.XHi, s2.YLo, s2.YHi, s2.MinDensity} {
		fmt.Fprintf(&b, " %x", math.Float64bits(v))
	}
	return b.String()
}

// fragmentAlloc is decodeAlloc for a fragment frame.
func fragmentAlloc(data []byte) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		new(Fragment).UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// decodeAlloc returns the bytes one decode of data allocates: the least
// of three measurements, as the process-wide counter also sees what other
// goroutines (the fuzzing engine's among them) allocate meanwhile.
func decodeAlloc(data []byte) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		new(FragmentResult).UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// randomResult draws a result whose every field group may be set.
func randomResult(t *testing.T, rng *rand.Rand) *FragmentResult {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.MaxFloat64}
	float := func() float64 {
		if rng.Intn(2) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	floats := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float()
		}
		return vs
	}
	counts := func(n int) []uint64 {
		cs := make([]uint64, n)
		for i := range cs {
			if rng.Intn(3) == 0 {
				cs[i] = rng.Uint64() >> rng.Intn(64)
			}
		}
		return cs
	}
	r := &FragmentResult{Count: rng.Uint64() >> rng.Intn(64)}
	switch rng.Intn(3) {
	case 1:
		r.MinMax = []VarRange{}
	case 2:
		for i := rng.Intn(4); i >= 0; i-- {
			r.MinMax = append(r.MinMax, VarRange{Var: strings.Repeat("v", rng.Intn(3)), Lo: float(), Hi: float(), N: rng.Uint64() >> rng.Intn(64)})
		}
	}
	if rng.Intn(2) == 0 {
		n := 1 + rng.Intn(30)
		r.Hist1 = (&histogram.Hist1D{Var: "x", Edges: floats(n + 1), Counts: counts(n)}).Cells()
	}
	if rng.Intn(2) == 0 {
		nx, ny := 1+rng.Intn(20), 1+rng.Intn(20)
		r.Hist2 = (&histogram.Hist2D{XVar: "x", YVar: "", XEdges: floats(nx + 1), YEdges: floats(ny + 1), Counts: counts(nx * ny)}).Cells()
	}
	if rng.Intn(2) == 0 { // histograms as a frontend holds them, decoded
		d := overWire(t, &FragmentResult{Hist1: r.Hist1, Hist2: r.Hist2})
		r.Hist1, r.Hist2 = d.Hist1, d.Hist2
	}
	switch rng.Intn(3) {
	case 1:
		r.Sel = []uint64{}
	case 2:
		p := rng.Uint64() >> rng.Intn(64)
		for i := rng.Intn(200); i >= 0 && p < math.MaxUint64; i-- {
			r.Sel = append(r.Sel, p)
			p += 1 + min(rng.Uint64()>>rng.Intn(64), math.MaxUint64-p-1)
		}
	}
	return r
}

// resultBits renders every field of r with floats as their bits and
// histograms expanded; a nil and an empty slice render alike.
func resultBits(r *FragmentResult) string {
	var b strings.Builder
	bits := func(vs []float64) {
		for _, v := range vs {
			fmt.Fprintf(&b, " %x", math.Float64bits(v))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "count %d\n", r.Count)
	for _, v := range r.MinMax {
		fmt.Fprintf(&b, "range %q %d", v.Var, v.N)
		bits([]float64{v.Lo, v.Hi})
	}
	if h := r.Hist1; h != nil {
		fmt.Fprintf(&b, "hist1 %q %v", h.Var, h.Dense().Counts)
		bits(h.Edges)
	}
	if h := r.Hist2; h != nil {
		fmt.Fprintf(&b, "hist2 %q %q %v", h.XVar, h.YVar, h.Dense().Counts)
		bits(h.XEdges)
		bits(h.YEdges)
	}
	fmt.Fprintf(&b, "sel %v\n", r.Sel)
	return b.String()
}

// BenchmarkReplyFrame encodes and decodes the frames of three replies: a
// 1 %-occupied 256² hist2d partial (a selective explore fragment), a fully
// dense 1024² one (the worst case), and a 10 k-position select.
func BenchmarkReplyFrame(b *testing.B) {
	hist := func(bins, every int) *FragmentResult {
		h := &histogram.Hist2D{XVar: "x", YVar: "px",
			XEdges: histogram.UniformEdges(-1, 1, bins), YEdges: histogram.UniformEdges(-2, 2, bins),
			Counts: make([]uint64, bins*bins)}
		for i := 0; i < len(h.Counts); i += every {
			h.Counts[i] = uint64(1 + i*7%1000)
		}
		return &FragmentResult{Hist2: h.Cells()}
	}
	sel := &FragmentResult{Count: 10000, Sel: make([]uint64, 10000)}
	for i := range sel.Sel {
		sel.Sel[i] = uint64(i*37 + i%7)
	}
	for _, c := range []struct {
		name string
		res  *FragmentResult
	}{{"256x256-1pct", hist(256, 100)}, {"1024x1024-dense", hist(1024, 1)}, {"sel-10k", sel}} {
		enc := must(c.res.MarshalBinary())
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := c.res.MarshalBinary(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if err := new(FragmentResult).UnmarshalBinary(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
