package fastbit

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/scan"
)

// testData builds a column with a dense bulk and a sparse high tail, the
// momentum-like shape the paper's threshold sweeps rely on.
func testData(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < 0.02 {
			out[i] = math.Pow(10, 9+rng.Float64()*2) // accelerated tail
		} else {
			out[i] = rng.NormFloat64() * 1e8 // thermal bulk
		}
	}
	return out
}

func TestBuildIndexBasics(t *testing.T) {
	vals := testData(10000, 1)
	ix, err := BuildIndex("px", vals, IndexOptions{Bins: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Bins() != 64 {
		t.Fatalf("Bins = %d", ix.Bins())
	}
	if ix.N != 10000 {
		t.Fatalf("N = %d", ix.N)
	}
	// Bitmaps partition the rows: each row in exactly one bin.
	var total uint64
	for _, c := range ix.BinCounts() {
		total += c
	}
	if total != ix.N {
		t.Fatalf("bin counts sum to %d, want %d", total, ix.N)
	}
	lo, hi := scan.MinMax(vals)
	if ix.Min() != lo || ix.Max() != hi {
		t.Fatalf("range [%g,%g], want [%g,%g]", ix.Min(), ix.Max(), lo, hi)
	}
	if ix.SizeBytes() <= 0 {
		t.Fatal("SizeBytes nonpositive")
	}
}

func TestBuildIndexRejectsBadInput(t *testing.T) {
	if _, err := BuildIndex("x", nil, IndexOptions{}); err == nil {
		t.Fatal("empty column accepted")
	}
	if _, err := BuildIndex("x", []float64{1, math.NaN()}, IndexOptions{}); err == nil {
		t.Fatal("NaN accepted")
	}
}

// TestBuildIndexNaNAtAnyRow: a NaN is reported as such in the first row,
// mid-column and in the last row, under every binning — not as a later
// "edges not strictly increasing".
func TestBuildIndexNaNAtAnyRow(t *testing.T) {
	nan := math.NaN()
	for _, vs := range [][]float64{{nan, 1, 2, 3}, {1, 2, nan, 3}, {1, 2, 3, nan}} {
		for _, opt := range []IndexOptions{{}, {Exact: true}, {Precision: 2}} {
			_, err := BuildIndex("x", vs, opt)
			if err == nil || !strings.Contains(err.Error(), "NaN value in column") {
				t.Errorf("BuildIndex(%v, %+v) = %v; want the NaN named", vs, opt, err)
			}
		}
	}
}

func TestBuildIndexConstantColumn(t *testing.T) {
	vals := []float64{5, 5, 5, 5}
	ix, err := BuildIndex("c", vals, IndexOptions{Bins: 8})
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, c := range ix.BinCounts() {
		total += c
	}
	if total != 4 {
		t.Fatalf("constant column counts = %v", ix.BinCounts())
	}
	raw := func(pos []uint64) ([]float64, error) {
		out := make([]float64, len(pos))
		for i, p := range pos {
			out[i] = vals[p]
		}
		return out, nil
	}
	v, _, err := ix.EvaluateCtx(context.Background(), query.Interval{Lo: 5, Hi: 5}, Gathered(raw), 0, ix.N)
	if err != nil {
		t.Fatal(err)
	}
	if v.Count() != 4 {
		t.Fatalf("eq on constant column found %d", v.Count())
	}
}

// evalBoth evaluates an interval through the index and through a direct
// scan and compares the results.
func evalBoth(t *testing.T, ix *Index, vals []float64, iv query.Interval) EvalStats {
	t.Helper()
	raw := func(pos []uint64) ([]float64, error) {
		out := make([]float64, len(pos))
		for i, p := range pos {
			out[i] = vals[p]
		}
		return out, nil
	}
	got, st, err := ix.EvaluateCtx(context.Background(), iv, Gathered(raw), 0, ix.N)
	if err != nil {
		t.Fatalf("Evaluate(%v): %v", iv, err)
	}
	if got.Len() != uint64(len(vals)) {
		t.Fatalf("result length %d, want %d", got.Len(), len(vals))
	}
	var want uint64
	wi := 0
	gotPos := got.Positions(0)
	for row, v := range vals {
		if iv.Contains(v) {
			want++
			if wi >= len(gotPos) || gotPos[wi] != uint64(row) {
				t.Fatalf("interval %v: row %d (v=%g) missing or misordered", iv, row, v)
			}
			wi++
		}
	}
	if uint64(len(gotPos)) != want {
		t.Fatalf("interval %v: got %d hits, want %d", iv, len(gotPos), want)
	}
	return st
}

func TestEvaluateMatchesScan(t *testing.T) {
	vals := testData(20000, 2)
	for _, bins := range []int{4, 64, 301} {
		ix, err := BuildIndex("px", vals, IndexOptions{Bins: bins})
		if err != nil {
			t.Fatal(err)
		}
		inf := math.Inf(1)
		intervals := []query.Interval{
			{Lo: -inf, Hi: 0, HiOpen: true},
			{Lo: 0, Hi: inf, LoOpen: true},
			{Lo: 1e9, Hi: inf, LoOpen: true},
			{Lo: -1e8, Hi: 1e8},
			{Lo: ix.Min(), Hi: ix.Max()},
			{Lo: ix.Min(), Hi: ix.Max(), LoOpen: true, HiOpen: true},
			{Lo: ix.Bounds[1], Hi: ix.Bounds[2]},               // aligned
			{Lo: ix.Bounds[1], Hi: ix.Bounds[2], HiOpen: true}, // aligned half-open
			{Lo: vals[0], Hi: vals[0]},                         // point query
			{Lo: 1e20, Hi: inf},                                // empty above
			{Lo: -inf, Hi: -1e20},                              // empty below
		}
		for _, iv := range intervals {
			evalBoth(t, ix, vals, iv)
		}
	}
}

func TestEvaluateRandomIntervalsProperty(t *testing.T) {
	vals := testData(3000, 3)
	ix, err := BuildIndex("px", vals, IndexOptions{Bins: 32})
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw float64, loOpen, hiOpen bool) bool {
		if math.IsNaN(aRaw) || math.IsNaN(bRaw) {
			return true
		}
		// Map the raw floats into the data range.
		span := ix.Max() - ix.Min()
		a := ix.Min() + math.Mod(math.Abs(aRaw), 1)*span
		b := ix.Min() + math.Mod(math.Abs(bRaw), 1)*span
		if a > b {
			a, b = b, a
		}
		iv := query.Interval{Lo: a, Hi: b, LoOpen: loOpen, HiOpen: hiOpen}
		raw := func(pos []uint64) ([]float64, error) {
			out := make([]float64, len(pos))
			for i, p := range pos {
				out[i] = vals[p]
			}
			return out, nil
		}
		got, _, err := ix.EvaluateCtx(context.Background(), iv, Gathered(raw), 0, ix.N)
		if err != nil {
			return false
		}
		var want uint64
		for _, v := range vals {
			if iv.Contains(v) {
				want++
			}
		}
		return got.Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAlignedQueryNeedsNoCandidateCheck(t *testing.T) {
	vals := testData(5000, 4)
	ix, err := BuildIndex("px", vals, IndexOptions{Bins: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Interval exactly on bin boundaries, half-open: pure index answer.
	iv := query.Interval{Lo: ix.Bounds[3], Hi: ix.Bounds[7], HiOpen: true}
	got, st, err := ix.EvaluateCtx(context.Background(), iv, nil, 0, ix.N) // nil raw reader must be fine
	if err != nil {
		t.Fatal(err)
	}
	if st.CandidateChecks != 0 {
		t.Fatalf("aligned query did %d candidate checks", st.CandidateChecks)
	}
	var want uint64
	for _, v := range vals {
		if iv.Contains(v) {
			want++
		}
	}
	if got.Count() != want {
		t.Fatalf("aligned query count %d, want %d", got.Count(), want)
	}
}

func TestUnalignedQueryWithoutRawReaderFails(t *testing.T) {
	vals := testData(1000, 5)
	ix, err := BuildIndex("px", vals, IndexOptions{Bins: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Pick a cut that provably separates two actual values inside one bin,
	// so granule metadata cannot resolve it and a candidate check is
	// unavoidable.
	var cut float64
	found := false
	for b := 0; b < ix.Bins() && !found; b++ {
		if ix.BinMin[b] < ix.BinMax[b] {
			cut = (ix.BinMin[b] + ix.BinMax[b]) / 2
			if cut > ix.BinMin[b] && cut < ix.BinMax[b] {
				found = true
			}
		}
	}
	if !found {
		t.Skip("no straddleable bin in test data")
	}
	if _, _, err := ix.EvaluateCtx(context.Background(), query.Interval{Lo: cut, Hi: math.Inf(1)}, nil, 0, ix.N); err == nil {
		t.Fatal("unaligned query without raw reader succeeded")
	}
}

func TestPrecisionBounds(t *testing.T) {
	b := precisionBounds(0, 100, 1, 4096)
	// 1-digit boundaries in (0,100): 1..9 (x1), 10..90 (x10) plus endpoints,
	// plus clamped tiny decades.
	seen := map[float64]bool{}
	for _, v := range b {
		seen[v] = true
	}
	for _, want := range []float64{1, 2, 9, 10, 20, 90, 0, 100} {
		if !seen[want] {
			t.Errorf("precision bounds missing %g (got %v)", want, b)
		}
	}
	for i := 1; i < len(b); i++ {
		if !(b[i] > b[i-1]) {
			t.Fatalf("bounds not increasing: %v", b)
		}
	}
}

func TestPrecisionBoundsNegativeRange(t *testing.T) {
	b := precisionBounds(-50, 50, 1, 4096)
	seen := map[float64]bool{}
	for _, v := range b {
		seen[v] = true
	}
	for _, want := range []float64{-50, -40, -10, -1, 0, 1, 10, 40, 50} {
		if !seen[want] {
			t.Errorf("missing %g in %v", want, b)
		}
	}
}

func TestPrecisionBoundsCap(t *testing.T) {
	b := precisionBounds(-1e12, 1e12, 3, 128)
	if len(b)-1 > 128 {
		t.Fatalf("cap exceeded: %d bins", len(b)-1)
	}
	for i := 1; i < len(b); i++ {
		if !(b[i] > b[i-1]) {
			t.Fatalf("bounds not increasing after thinning")
		}
	}
	if b[0] != -1e12 || b[len(b)-1] != 1e12 {
		t.Fatal("endpoints lost in thinning")
	}
}

func TestPrecisionIndexAnswersLowPrecisionQueriesExactly(t *testing.T) {
	vals := testData(20000, 7)
	ix, err := BuildIndex("px", vals, IndexOptions{Precision: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Low-precision constants must be answered index-only: no candidate
	// checks (this is the design property of precision binning).
	for _, c := range []float64{1e9, 2.5e8, -1e8, 5e9} {
		if c < ix.Min() || c > ix.Max() {
			continue
		}
		iv := query.Interval{Lo: c, Hi: math.Inf(1), LoOpen: true}
		st := evalBoth(t, ix, vals, iv)
		if st.CandidateChecks != 0 {
			t.Errorf("precision index did %d candidate checks for threshold %g", st.CandidateChecks, c)
		}
	}
	// High-precision constants still work (with candidate checks).
	iv := query.Interval{Lo: 1.23456789e8, Hi: math.Inf(1), LoOpen: true}
	evalBoth(t, ix, vals, iv)
}

func TestNextPrecisionValue(t *testing.T) {
	cases := []struct {
		v, want float64
		p       int
	}{
		{1, 2, 1},
		{9, 10, 1},
		{10, 20, 1},
		{1.0, 1.1, 2},
		{9.9, 10, 2},
		{99, 100, 2},
		{2.5e8, 2.6e8, 2},
	}
	for _, c := range cases {
		if got := nextPrecisionValue(c.v, c.p); math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("nextPrecisionValue(%g, %d) = %g, want %g", c.v, c.p, got, c.want)
		}
	}
}

func TestBinCountsMatchHistogram(t *testing.T) {
	vals := testData(5000, 8)
	ix, err := BuildIndex("px", vals, IndexOptions{Bins: 32})
	if err != nil {
		t.Fatal(err)
	}
	counts := ix.BinCounts()
	// Recompute with the scan baseline over the same edges.
	h, err := scan.Histogram1DCtx(context.Background(), scan.Columns{"px": vals}, "px", nil, ix.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if counts[i] != h.Counts[i] {
			t.Fatalf("bin %d: index %d vs scan %d", i, counts[i], h.Counts[i])
		}
	}
}

func TestExactIndexLowCardinality(t *testing.T) {
	// A categorical column, like the paper's "gender" example: species
	// codes 0, 1, 2.
	rng := rand.New(rand.NewSource(51))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = float64(rng.Intn(3))
	}
	ix, err := BuildIndex("species", vals, IndexOptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Bins() != 3 {
		t.Fatalf("Bins = %d, want 3", ix.Bins())
	}
	// Every equality and range query resolves index-only: zero candidate
	// checks even with a nil raw reader.
	for _, iv := range []query.Interval{
		{Lo: 1, Hi: 1},                          // == 1
		{Lo: 0, Hi: 1, HiOpen: true},            // == 0 via [0,1)
		{Lo: 0.5, Hi: math.Inf(1)},              // >= 0.5
		{Lo: math.Inf(-1), Hi: 2, HiOpen: true}, // < 2
	} {
		got, st, err := ix.EvaluateCtx(context.Background(), iv, nil, 0, ix.N)
		if err != nil {
			t.Fatalf("%v: %v", iv, err)
		}
		if st.CandidateChecks != 0 {
			t.Fatalf("%v: %d candidate checks", iv, st.CandidateChecks)
		}
		var want uint64
		for _, v := range vals {
			if iv.Contains(v) {
				want++
			}
		}
		if got.Count() != want {
			t.Fatalf("%v: count %d, want %d", iv, got.Count(), want)
		}
	}
}

func TestExactIndexCardinalityCap(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, err := BuildIndex("v", vals, IndexOptions{Exact: true, MaxBins: 10}); err == nil {
		t.Fatal("over-cardinality exact index accepted")
	}
	// Single distinct value works.
	one := []float64{7, 7, 7}
	ix, err := BuildIndex("v", one, IndexOptions{Exact: true})
	if err != nil || ix.Bins() != 1 {
		t.Fatalf("constant exact index: bins=%d err=%v", ixBins(ix), err)
	}
}

func ixBins(ix *Index) int {
	if ix == nil {
		return -1
	}
	return ix.Bins()
}

func TestExactIndexAdjacentFloats(t *testing.T) {
	a := 1.0
	b := math.Nextafter(a, 2)
	vals := []float64{a, b, a, b, a}
	ix, err := BuildIndex("v", vals, IndexOptions{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := ix.EvaluateCtx(context.Background(), query.Interval{Lo: b, Hi: b}, nil, 0, ix.N)
	if err != nil {
		t.Fatal(err)
	}
	if st.CandidateChecks != 0 || got.Count() != 2 {
		t.Fatalf("adjacent float equality: count=%d checks=%d", got.Count(), st.CandidateChecks)
	}
}

// TestBuildIndexExtremeSpans: a column spanning a few subnormals, or
// nearly the whole float range, indexes with fewer bins instead of
// failing on duplicate edges, and evaluates exactly.
func TestBuildIndexExtremeSpans(t *testing.T) {
	for _, vals := range [][]float64{
		{0, 5e-324, 0, 5e-324, 0},
		{-1.5e308, 0, 1.5e308, 1, -1},
	} {
		ix, err := BuildIndex("v", vals, IndexOptions{Bins: 8})
		if err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		evalBoth(t, ix, vals, query.Interval{Lo: 0, Hi: math.Inf(1), LoOpen: true})
		evalBoth(t, ix, vals, query.Interval{Lo: -1, Hi: 1})
	}
}

// TestBuildIndexLocatesAsBin: BuildIndex locates each value through
// Locator.Guess, and Bin on a miss; every row lands in the bin a loop
// calling Bin alone puts it in, with the values at every bound and both
// its neighbours, on uniform, precision and extreme-span bounds.
func TestBuildIndexLocatesAsBin(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := make([]float64, 2000)
	for i := range base {
		base[i] = rng.NormFloat64() * math.Exp(2*rng.NormFloat64())
	}
	for _, c := range []struct {
		vals []float64
		opt  IndexOptions
	}{
		{base, IndexOptions{Bins: 64}},
		{base, IndexOptions{Precision: 2}},
		{[]float64{0, 5e-324, 1e-323, 2e-323}, IndexOptions{Bins: 3}},
		{[]float64{-1.5e308, 0, 1.5e308}, IndexOptions{Bins: 8}},
	} {
		first, err := BuildIndex("v", c.vals, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		// Probe every bound inside [min, max]: the bounds stay the same.
		vals := slices.Clone(c.vals)
		for _, b := range first.Bounds {
			for _, v := range []float64{b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1))} {
				if v >= first.Min() && v <= first.Max() {
					vals = append(vals, v)
				}
			}
		}
		ix, err := BuildIndex("v", vals, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ix.Bounds, first.Bounds) {
			t.Fatalf("%+v: probing the bounds moved them", c.opt)
		}
		loc, err := histogram.NewLocator(ix.Bounds)
		if err != nil {
			t.Fatal(err)
		}
		for row, v := range vals {
			want := loc.Bin(v)
			if want < 0 {
				t.Fatalf("%+v: %g outside its own bounds", c.opt, v)
			}
			if !ix.Bitmaps[want].Get(uint64(row)) {
				t.Fatalf("%+v: row %d (%g) not in bin %d, Bin's", c.opt, row, v, want)
			}
		}
	}
}
