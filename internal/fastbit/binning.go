// Package fastbit implements a binned, WAH-compressed bitmap index with
// range queries, identifier queries and index-accelerated conditional
// histograms — a from-scratch Go reproduction of the FastBit engine the
// paper relies on (Sections II-B and III).
//
// Each indexed column gets one compressed bitmap per bin; a bit is 1 when
// the record's value falls in that bin. Range conditions OR the bitmaps of
// fully covered bins (or complement the OR of the other bins, when those
// carry fewer words) and resolve the (at most two) boundary bins with a
// candidate check against the raw values — the standard binned-bitmap
// evaluation strategy of Wu, Stockinger and Shoshani ("Breaking the curse
// of cardinality on bitmap indexes", SSDBM 2008).
package fastbit

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/query"
)

// IndexOptions selects how bin boundaries are chosen at index build time.
type IndexOptions struct {
	// Bins is the number of equal-width bins when Precision == 0. A zero
	// value selects DefaultBins.
	Bins int
	// Precision, when positive, requests precision-based bin boundaries:
	// every boundary is a number with at most Precision significant
	// decimal digits, so any range condition whose constants have at most
	// that precision is answered from the index alone, with no candidate
	// check (paper Section II-B).
	Precision int
	// MaxBins caps the number of bins generated by precision or exact
	// binning. A zero value selects DefaultMaxBins.
	MaxBins int
	// Exact requests one bin per distinct value — the classic bitmap
	// index for low-cardinality variables ("such as gender", paper
	// Section II-B). Every query is then answered from the index alone.
	// Building fails when the column's cardinality exceeds MaxBins.
	Exact bool
}

// Defaults for IndexOptions.
const (
	DefaultBins    = 256
	DefaultMaxBins = 4096
	// precisionDecadeSpan bounds how many decades below the largest
	// magnitude precision boundaries are generated; smaller values
	// collapse into the innermost bins around zero.
	precisionDecadeSpan = 8
)

// uniformBounds returns nb+1 equal-width boundaries over [lo, hi], or
// fewer when the span is too narrow or too wide for nb distinct edges.
func uniformBounds(lo, hi float64, nb int) []float64 {
	if nb < 1 {
		nb = 1
	}
	if hi <= lo {
		hi = lo + math.Max(math.Abs(lo)*1e-9, 1e-12)
	}
	// Edges that round onto their neighbour (a span of a few subnormals)
	// or past hi (a span beyond MaxFloat64) are dropped: fewer bins, but
	// strictly increasing bounds.
	out := make([]float64, 1, nb+1)
	out[0] = lo
	step := (hi - lo) / float64(nb)
	for i := 1; i < nb; i++ {
		if e := lo + float64(i)*step; e > out[len(out)-1] && e < hi {
			out = append(out, e)
		}
	}
	return append(out, hi)
}

// precisionBounds returns all boundaries with at most p significant
// decimal digits covering [lo, hi], clamped to maxBins+1 boundaries. The
// returned slice always starts at lo and ends at hi.
func precisionBounds(lo, hi float64, p, maxBins int) []float64 {
	if p < 1 {
		p = 1
	}
	if maxBins <= 0 {
		maxBins = DefaultMaxBins
	}
	if hi <= lo {
		return uniformBounds(lo, hi, 1)
	}
	largest := math.Max(math.Abs(lo), math.Abs(hi))
	if largest == 0 {
		return uniformBounds(lo, hi, 1)
	}
	// Ignore structure below this magnitude: tiny values share the bins
	// adjacent to zero.
	floor := largest * math.Pow(10, -float64(precisionDecadeSpan))

	set := map[float64]bool{lo: true, hi: true}
	add := func(v float64) {
		if v > lo && v < hi {
			set[v] = true
		}
	}
	if lo < 0 && hi > 0 {
		add(0)
	}
	// Positive side grid.
	if hi > floor {
		start := math.Max(floor, math.Max(lo, floor))
		for v := firstPrecisionValueAtLeast(start, p); v < hi; v = nextPrecisionValue(v, p) {
			add(v)
			if len(set) > 4*maxBins {
				break
			}
		}
	}
	// Negative side grid (mirror of the positive grid).
	if lo < -floor {
		end := math.Min(-floor, math.Min(hi, -floor))
		for v := firstPrecisionValueAtLeast(-end, p); v < -lo; v = nextPrecisionValue(v, p) {
			add(-v)
			if len(set) > 8*maxBins {
				break
			}
		}
	}
	bounds := make([]float64, 0, len(set))
	for v := range set {
		bounds = append(bounds, v)
	}
	sort.Float64s(bounds)
	// Thin out evenly if over the cap.
	if len(bounds)-1 > maxBins {
		thinned := make([]float64, 0, maxBins+1)
		stride := float64(len(bounds)-1) / float64(maxBins)
		for i := 0; i <= maxBins; i++ {
			thinned = append(thinned, bounds[int(math.Round(float64(i)*stride))])
		}
		thinned[len(thinned)-1] = bounds[len(bounds)-1]
		bounds = dedupSorted(thinned)
	}
	return bounds
}

// firstPrecisionValueAtLeast returns the smallest positive p-digit value
// that is >= v (v > 0).
func firstPrecisionValueAtLeast(v float64, p int) float64 {
	if v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return math.Inf(1)
	}
	r := query.RoundToPrecision(v, p)
	for r < v {
		r = nextPrecisionValue(r, p)
	}
	return r
}

// nextPrecisionValue returns the smallest p-digit value strictly greater
// than the positive p-digit value v.
func nextPrecisionValue(v float64, p int) float64 {
	if v <= 0 {
		return math.Inf(1)
	}
	exp := math.Floor(math.Log10(v))
	scale := math.Pow(10, exp-float64(p-1))
	mant := math.Round(v / scale)
	mant++
	next := mant * scale
	// Renormalise across decade boundaries (e.g. 9.9e2 -> 1.0e3).
	return query.RoundToPrecision(next, p)
}

func dedupSorted(vs []float64) []float64 {
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// boundsFor computes the bin boundaries for values according to opt.
func boundsFor(values []float64, opt IndexOptions) ([]float64, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("fastbit: cannot index empty column")
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("fastbit: NaN value in column")
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	maxBins := opt.MaxBins
	if maxBins <= 0 {
		maxBins = DefaultMaxBins
	}
	if opt.Exact {
		return exactBounds(values, maxBins)
	}
	if opt.Precision > 0 {
		return precisionBounds(lo, hi, opt.Precision, maxBins), nil
	}
	nb := opt.Bins
	if nb <= 0 {
		nb = DefaultBins
	}
	return uniformBounds(lo, hi, nb), nil
}

// exactBounds returns boundaries that isolate every distinct value in its
// own bin: each bin [b_i, b_{i+1}) contains exactly one distinct value
// (the last bin is closed). Combined with the per-bin min/max granules,
// every range or equality query resolves from the index alone.
func exactBounds(values []float64, maxBins int) ([]float64, error) {
	distinct := map[float64]bool{}
	for _, v := range values {
		distinct[v] = true
		if len(distinct) > maxBins {
			return nil, fmt.Errorf("fastbit: exact binning: cardinality exceeds %d", maxBins)
		}
	}
	vals := make([]float64, 0, len(distinct))
	for v := range distinct {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	if len(vals) == 1 {
		return uniformBounds(vals[0], vals[0], 1), nil
	}
	bounds := make([]float64, 0, len(vals)+1)
	bounds = append(bounds, vals[0])
	for i := 1; i < len(vals); i++ {
		mid := vals[i-1] + (vals[i]-vals[i-1])/2
		if !(mid > bounds[len(bounds)-1]) {
			// Adjacent representable floats: use the upper value itself.
			mid = vals[i]
		}
		if mid > bounds[len(bounds)-1] {
			bounds = append(bounds, mid)
		}
	}
	bounds = append(bounds, vals[len(vals)-1])
	// Ensure the final edge exceeds the previous one.
	if n := len(bounds); bounds[n-1] <= bounds[n-2] {
		bounds[n-1] = math.Nextafter(bounds[n-2], math.Inf(1))
	}
	return bounds, nil
}
