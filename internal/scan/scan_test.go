package scan

import (
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
	got, err := Select(c, e)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Select = %v", got)
	}
}

func TestSelectUnknownVariable(t *testing.T) {
	c := Columns{"px": {1}}
	if _, err := Select(c, query.MustParse("nope > 0")); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := Count(c, query.MustParse("nope > 0")); err == nil {
		t.Fatal("unknown variable accepted by Count")
	}
}

func TestSelectMismatchedColumns(t *testing.T) {
	c := Columns{"a": {1, 2}, "b": {1}}
	if _, err := Select(c, query.MustParse("a > 0 && b > 0")); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

func TestCountMatchesSelectProperty(t *testing.T) {
	f := func(seed int64) bool {
		c := testColumns(500, seed)
		e := query.MustParse("px > 0 && x < 5")
		sel, err := Select(c, e)
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
	got, err := Histogram2D(c, "x", "y", xe, ye)
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
	h, err := ConditionalHistogram2D(c, "x", "y", query.MustParse("px > 0"), xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 2 || h.At(0, 0) != 1 || h.At(2, 0) != 1 {
		t.Fatalf("conditional counts = %v", h.Counts)
	}
	// Condition referencing missing variable errors.
	if _, err := ConditionalHistogram2D(c, "x", "y", query.MustParse("zz > 0"), xe, ye); err == nil {
		t.Fatal("bad condition accepted")
	}
	// Unknown plot variables error.
	if _, err := ConditionalHistogram2D(c, "zz", "y", nil, xe, ye); err == nil {
		t.Fatal("unknown x var accepted")
	}
	if _, err := ConditionalHistogram2D(c, "x", "zz", nil, xe, ye); err == nil {
		t.Fatal("unknown y var accepted")
	}
}

func TestHistogram1D(t *testing.T) {
	c := Columns{"px": {0.1, 0.2, 0.7, 0.9}, "y": {1, -1, 1, 1}}
	h, err := Histogram1D(c, "px", query.MustParse("y > 0"), histogram.UniformEdges(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 {
		t.Fatalf("1D counts = %v", h.Counts)
	}
	if _, err := Histogram1D(c, "nope", nil, histogram.UniformEdges(0, 1, 2)); err == nil {
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
	ids := []int64{100, 50, 200, 50, 300}
	got := FindIDs(ids, []int64{50, 300, 999})
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("FindIDs = %v", got)
	}
	if got := FindIDs(ids, nil); len(got) != 0 {
		t.Fatalf("empty set FindIDs = %v", got)
	}
	if got := FindIDs(nil, []int64{1}); len(got) != 0 {
		t.Fatalf("empty ids FindIDs = %v", got)
	}
}

// Property: FindIDs returns exactly the rows whose id is in the set.
func TestFindIDsProperty(t *testing.T) {
	f := func(rawIDs []int64, rawSet []int64) bool {
		got := FindIDs(rawIDs, rawSet)
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
