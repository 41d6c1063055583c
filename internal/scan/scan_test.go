package scan

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/histogram"
	"repro/internal/query"
)

func testColumns(n int, seed int64) Columns {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	pxs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		pxs[i] = rng.NormFloat64() * 1e9
		ys[i] = rng.Float64()*2 - 1
	}
	return Columns{"x": xs, "px": pxs, "y": ys}
}

func TestSelect(t *testing.T) {
	c := Columns{
		"px": {1, 5, 10, 3},
		"y":  {-1, 1, 1, -1},
	}
	e := query.MustParse("px > 2 && y > 0")
	got, err := SelectCtx(context.Background(), c, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Select = %v", got)
	}
}

func TestSelectUnknownVariable(t *testing.T) {
	c := Columns{"px": {1}}
	if _, err := SelectCtx(context.Background(), c, query.MustParse("nope > 0")); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := Count(c, query.MustParse("nope > 0")); err == nil {
		t.Fatal("unknown variable accepted by Count")
	}
}

func TestSelectMismatchedColumns(t *testing.T) {
	c := Columns{"a": {1, 2}, "b": {1}}
	if _, err := SelectCtx(context.Background(), c, query.MustParse("a > 0 && b > 0")); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

func TestCountMatchesSelectProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := testColumns(500, seed)
		e := query.MustParse("px > 0 && x < 5")
		sel, err := SelectCtx(context.Background(), c, e)
		if err != nil {
			return false
		}
		cnt, err := Count(c, e)
		if err != nil {
			return false
		}
		return cnt == uint64(len(sel))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram2DMatchesGenericCompute(t *testing.T) {
	c := testColumns(5000, 7)
	xe := histogram.UniformEdges(0, 10, 32)
	ye := histogram.UniformEdges(-1, 1, 16)
	got, err := ConditionalHistogram2DCtx(context.Background(), c, "x", "y", nil, xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	want, err := histogram.Compute2D("x", "y", c["x"], c["y"], xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, got.Counts[i], want.Counts[i])
		}
	}
}

func TestConditionalHistogram2D(t *testing.T) {
	c := Columns{
		"x":  {0.5, 1.5, 2.5, 3.5},
		"y":  {0.5, 0.5, 0.5, 0.5},
		"px": {1, -1, 1, -1},
	}
	xe := histogram.UniformEdges(0, 4, 4)
	ye := histogram.UniformEdges(0, 1, 1)
	h, err := ConditionalHistogram2DCtx(context.Background(), c, "x", "y", query.MustParse("px > 0"), xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 2 || h.At(0, 0) != 1 || h.At(2, 0) != 1 {
		t.Fatalf("conditional counts = %v", h.Counts)
	}
	// Condition referencing missing variable errors.
	if _, err := ConditionalHistogram2DCtx(context.Background(), c, "x", "y", query.MustParse("zz > 0"), xe, ye); err == nil {
		t.Fatal("bad condition accepted")
	}
	// Unknown plot variables error.
	if _, err := ConditionalHistogram2DCtx(context.Background(), c, "zz", "y", nil, xe, ye); err == nil {
		t.Fatal("unknown x var accepted")
	}
	if _, err := ConditionalHistogram2DCtx(context.Background(), c, "x", "zz", nil, xe, ye); err == nil {
		t.Fatal("unknown y var accepted")
	}
}

func TestHistogram1D(t *testing.T) {
	c := Columns{"px": {0.1, 0.2, 0.7, 0.9}, "y": {1, -1, 1, 1}}
	h, err := Histogram1DCtx(context.Background(), c, "px", query.MustParse("y > 0"), histogram.UniformEdges(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Fatalf("1D counts = %v", h.Counts)
	}
	if _, err := Histogram1DCtx(context.Background(), c, "nope", nil, histogram.UniformEdges(0, 1, 2)); err == nil {
		t.Fatal("unknown var accepted")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 4, 1, 5})
	if lo != -1 || hi != 5 {
		t.Fatalf("MinMax = %g, %g", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatalf("empty MinMax = %g, %g", lo, hi)
	}
}

// TestMinMaxSkipsNaNAnywhere: a NaN is skipped wherever it sits — the
// first row included, which once made the range (NaN, NaN) — so a
// data-derived histogram range cannot depend on row order. Only an
// all-NaN column has no range.
func TestMinMaxSkipsNaNAnywhere(t *testing.T) {
	nan := math.NaN()
	for _, vs := range [][]float64{
		{nan, 3, -1, 5},
		{3, -1, nan, 5},
		{3, -1, 5, nan},
		{nan, nan, 5, -1, 3, nan},
	} {
		if lo, hi := MinMax(vs); lo != -1 || hi != 5 {
			t.Errorf("MinMax(%v) = %g, %g; want -1, 5", vs, lo, hi)
		}
	}
	if lo, hi := MinMax([]float64{nan, nan}); !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Errorf("all-NaN MinMax = %g, %g; want NaN, NaN", lo, hi)
	}
}

func TestFindIDs(t *testing.T) {
	find := func(ids, set []int64) []uint64 {
		t.Helper()
		got, err := FindIDsCtx(context.Background(), ids, set)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	ids := []int64{100, 50, 200, 50, 300}
	got := find(ids, []int64{50, 300, 999})
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("FindIDs = %v", got)
	}
	if got := find(ids, nil); len(got) != 0 {
		t.Fatalf("empty set FindIDs = %v", got)
	}
	if got := find(nil, []int64{1}); len(got) != 0 {
		t.Fatalf("empty ids FindIDs = %v", got)
	}
}

// Property: FindIDsCtx returns exactly the rows whose id is in the set.
func TestFindIDsProperty(t *testing.T) {
	f := func(rawIDs []int64, rawSet []int64) bool {
		got, err := FindIDsCtx(context.Background(), rawIDs, rawSet)
		if err != nil {
			return false
		}
		want := map[int64]bool{}
		for _, id := range rawSet {
			want[id] = true
		}
		gi := 0
		for row, id := range rawIDs {
			if want[id] {
				if gi >= len(got) || got[gi] != uint64(row) {
					return false
				}
				gi++
			}
		}
		return gi == len(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKernelsLocateAsBin: the Custom kernels locate each value through
// Locator.Guess, and Bin on a miss; their counts equal a loop calling
// Bin alone, on uniform, ulp-narrow, subnormal and adaptive edges probed
// at every edge, both its neighbours, −0, NaN and ±Inf.
func TestKernelsLocateAsBin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tail := make([]float64, 1000)
	for i := range tail {
		tail[i] = rng.NormFloat64() * math.Exp(2*rng.NormFloat64())
	}
	lo, hi := MinMax(tail)
	adaptive, err := histogram.AdaptiveEdges(tail, lo, hi, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]float64{
		histogram.UniformEdges(-3.7, 12.1, 64),
		histogram.UniformEdges(1e15, math.Nextafter(1e15, 2e15), 9),
		histogram.UniformEdges(0, 5e-324, 3),
		adaptive,
	}
	probe := func(edges []float64) []float64 {
		out := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
		for _, e := range edges {
			out = append(out, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
		}
		return out
	}
	for i, xe := range sets {
		ye := sets[(i+1)%len(sets)]
		xs, ys := probe(xe), probe(ye)
		for len(ys) < len(xs) {
			ys = append(ys, ys...)
		}
		ys = ys[:len(xs)]
		rng.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
		cs := make([]float64, len(xs))
		for j := range cs {
			cs[j] = float64(rng.Intn(2))
		}
		c := Columns{"x": xs, "y": ys, "c": cs}
		lx, _ := histogram.NewLocator(xe)
		ly, _ := histogram.NewLocator(ye)
		want1 := make([]uint64, lx.Bins())
		want2 := make([]uint64, lx.Bins()*ly.Bins())
		for j, x := range xs {
			if cs[j] == 0 {
				continue
			}
			ix, iy := lx.Bin(x), ly.Bin(ys[j])
			if ix >= 0 {
				want1[ix]++
			}
			if ix >= 0 && iy >= 0 {
				want2[iy*lx.Bins()+ix]++
			}
		}
		cond := query.MustParse("c > 0")
		h2, err := ConditionalHistogram2DCtx(context.Background(), c, "x", "y", cond, xe, ye)
		if err != nil {
			t.Fatal(err)
		}
		h1, err := Histogram1DCtx(context.Background(), c, "x", cond, xe)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want2 {
			if h2.Counts[j] != want2[j] {
				t.Fatalf("set %d: 2D cell %d = %d, Bin's loop counts %d", i, j, h2.Counts[j], want2[j])
			}
		}
		for j := range want1 {
			if h1.Counts[j] != want1[j] {
				t.Fatalf("set %d: 1D bin %d = %d, Bin's loop counts %d", i, j, h1.Counts[j], want1[j])
			}
		}
	}
}
