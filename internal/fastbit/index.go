package fastbit

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bitmap"
	"repro/internal/histogram"
	"repro/internal/query"
)

// Index is a binned bitmap index over one column: Bounds partitions
// [min, max] into bins, and Bitmaps[i] marks the records whose value falls
// in bin i (the last bin includes its upper bound). Every record belongs
// to exactly one bin.
//
// A whole-step index's bitmaps hold all N rows. A cut index holds
// only the bitmap groups covering a row window: bit i of every bitmap is
// row FirstRow+i. Its bounds and granules stay the whole step's — they
// describe values, not rows — and asking it for rows outside its window
// is an error, never a silent clip.
type Index struct {
	Name      string
	N         uint64    // the step's rows, whichever of them the bitmaps hold
	Bounds    []float64 // len = bins+1
	Bitmaps   []*bitmap.Vector
	Precision int // >0 when built with precision boundaries

	// FirstRow is the row of every bitmap's bit 0: 0 for a whole-step index.
	FirstRow uint64

	// BinMin and BinMax record the actual smallest and largest value in
	// each bin (like FastBit's per-bin granule metadata). They let a
	// boundary bin be resolved exactly without a candidate check whenever
	// the query cut does not pass between the bin's actual values — in
	// particular, strict comparisons on exact bin boundaries. Empty bins
	// hold +Inf/-Inf.
	BinMin, BinMax []float64
}

// RawValues reads raw column values at sorted record positions; it is
// how the index performs candidate checks against the base data. It
// hands check the values a batch at a time — a run of the positions and
// their values, which check must not keep — and stops at, and returns,
// the first error check returns.
type RawValues func(positions []uint64, check func(positions []uint64, values []float64) error) error

// BuildIndex constructs the bitmap index for a column. Out-of-range
// values cannot occur (bounds are derived from the data), and NaN values
// are rejected.
func BuildIndex(name string, values []float64, opt IndexOptions) (*Index, error) {
	bounds, err := boundsFor(values, opt)
	if err != nil {
		return nil, fmt.Errorf("fastbit: index %q: %w", name, err)
	}
	loc, err := histogram.NewLocator(bounds)
	if err != nil {
		return nil, fmt.Errorf("fastbit: index %q: %w", name, err)
	}
	nb := loc.Bins()
	ix := &Index{
		Name:      name,
		N:         uint64(len(values)),
		Bounds:    bounds,
		Bitmaps:   make([]*bitmap.Vector, nb),
		Precision: opt.Precision,
	}
	ix.BinMin = make([]float64, nb)
	ix.BinMax = make([]float64, nb)
	for i := range ix.Bitmaps {
		ix.Bitmaps[i] = bitmap.New(ix.N)
		ix.BinMin[i] = math.Inf(1)
		ix.BinMax[i] = math.Inf(-1)
	}
	// Streaming build: cursor[b] is the number of bits already appended to
	// bitmap b; append the gap of zeros, then the one.
	cursor := make([]uint64, nb)
	for row, v := range values {
		b := loc.Guess(v)
		if b < 0 {
			b = loc.Bin(v)
		}
		if b < 0 { // clamp rounding stragglers to the nearest edge bin
			if v < bounds[0] {
				b = 0
			} else {
				b = nb - 1
			}
		}
		ix.Bitmaps[b].AppendRun(false, uint64(row)-cursor[b])
		ix.Bitmaps[b].AppendBit(true)
		cursor[b] = uint64(row) + 1
		if v < ix.BinMin[b] {
			ix.BinMin[b] = v
		}
		if v > ix.BinMax[b] {
			ix.BinMax[b] = v
		}
	}
	for b := range ix.Bitmaps {
		ix.Bitmaps[b].AppendRun(false, ix.N-cursor[b])
		ix.Bitmaps[b].Compact()
	}
	return ix, nil
}

// cut returns the whole-step index ix with every bitmap cut to the
// groups covering rows [lo, hi) (bitmap.Vector.Window); the bounds and
// granules are shared.
func (ix *Index) cut(lo, hi uint64) *Index {
	out := *ix
	out.Bitmaps = make([]*bitmap.Vector, len(ix.Bitmaps))
	for b, bm := range ix.Bitmaps {
		out.Bitmaps[b], out.FirstRow = bm.Window(lo, hi)
	}
	return &out
}

// rows returns the rows the bitmaps hold: [FirstRow, FirstRow+Len).
func (ix *Index) rows() (lo, hi uint64) {
	if len(ix.Bitmaps) == 0 {
		return ix.FirstRow, ix.FirstRow
	}
	return ix.FirstRow, ix.FirstRow + ix.Bitmaps[0].Len()
}

// covers reports whether the bitmaps hold every row of [lo, hi).
func (ix *Index) covers(lo, hi uint64) bool {
	first, end := ix.rows()
	return lo >= first && hi <= end
}

// Bins returns the number of bins.
func (ix *Index) Bins() int { return len(ix.Bitmaps) }

// Min returns the smallest indexed value.
func (ix *Index) Min() float64 { return ix.Bounds[0] }

// Max returns the largest indexed value.
func (ix *Index) Max() float64 { return ix.Bounds[len(ix.Bounds)-1] }

// BinCounts returns the number of records per bin, read off the bitmaps:
// of the rows they hold.
func (ix *Index) BinCounts() []uint64 {
	out := make([]uint64, len(ix.Bitmaps))
	for i, bm := range ix.Bitmaps {
		out[i] = bm.Count()
	}
	return out
}

// SizeBytes returns the approximate compressed size of the index.
func (ix *Index) SizeBytes() int {
	s := 8 * len(ix.Bounds)
	for _, bm := range ix.Bitmaps {
		s += bm.SizeBytes()
	}
	return s
}

// EvalStats reports how a range evaluation was resolved. CandidateChecks
// counts records whose raw values had to be read; zero means the query
// was answered from the index alone (the case precision binning
// guarantees for low-precision constants).
type EvalStats struct {
	FullBins        int
	BoundaryBins    int
	CandidateChecks uint64
	// ApproxRows counts records admitted wholesale from boundary bins by
	// the approximate (index-only) evaluation path instead of being
	// candidate-checked; nonzero means the result is a superset.
	ApproxRows uint64
}

// EvaluateCtx returns the set of records in the row window [lo, hi)
// whose value lies in iv; the whole step is [0, N). raw is consulted only
// for records in boundary bins, and may be nil when the interval is
// aligned with bin boundaries. The candidate check observes ctx once per
// batch of values raw hands it. Bit i of the returned set stands for row
// lo+i; only the bin words and boundary-bin records inside the window are
// read.
func (ix *Index) EvaluateCtx(ctx context.Context, iv query.Interval, raw RawValues, lo, hi uint64) (*bitmap.BitSet, EvalStats, error) {
	return ix.evaluate(ctx, iv, raw, false, lo, hi)
}

// evaluate is the one range evaluation of a single term, over the row
// window [lo, hi): the full bins' rows, plus the boundary bins' rows
// either candidate-checked against raw (each hit sets its bit) or, with
// approx, admitted wholesale. A conjunction runs the same two halves,
// bounds and check, over all its range terms (Evaluator.evalAnd).
func (ix *Index) evaluate(ctx context.Context, iv query.Interval, raw RawValues, approx bool, lo, hi uint64) (*bitmap.BitSet, EvalStats, error) {
	sure, cand, st, err := ix.bounds(iv, lo, hi)
	if err != nil || cand == nil {
		return sure, st, err
	}
	if approx {
		st.ApproxRows = cand.Count()
		sure.OrWith(cand)
		return sure, st, nil
	}
	st.CandidateChecks, err = ix.check(ctx, iv, raw, cand, sure, lo)
	if err != nil {
		return nil, st, err
	}
	return sure, st, nil
}

// bounds resolves iv from the bins alone, over rows [lo, hi): sure holds
// the rows of its full bins, which match, and cand those of its boundary
// bins, which may; cand is nil when no bin is a boundary bin. Every row
// outside both does not match.
func (ix *Index) bounds(iv query.Interval, lo, hi uint64) (sure, cand *bitmap.BitSet, st EvalStats, err error) {
	cls, st := ix.classify(iv)
	if sure, err = ix.rowsIn(cls, binFull, lo, hi); err != nil || st.BoundaryBins == 0 {
		return sure, nil, st, err
	}
	cand, err = ix.rowsIn(cls, binBoundary, lo, hi)
	return sure, cand, st, err
}

// check reads raw at the rows cand sets, bit i standing for row lo+i,
// and sets in s the bit of each whose value lies in iv. It returns the
// number of rows read, the candidate checks, and observes ctx once per
// batch of values raw hands it.
func (ix *Index) check(ctx context.Context, iv query.Interval, raw RawValues, cand, s *bitmap.BitSet, lo uint64) (uint64, error) {
	if raw == nil {
		return 0, fmt.Errorf("fastbit: %q: interval %v needs a candidate check but no raw reader was provided", ix.Name, iv)
	}
	positions := cand.Positions(lo)
	if len(positions) == 0 {
		return 0, nil
	}
	err := raw(positions, func(pos []uint64, values []float64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, v := range values {
			if iv.Contains(v) {
				s.Set(pos[i] - lo)
			}
		}
		return nil
	})
	if err != nil {
		return uint64(len(positions)), checkErr(ctx, fmt.Errorf("fastbit: %q: candidate check: %w", ix.Name, err))
	}
	return uint64(len(positions)), nil
}

// binClass is how an interval resolves one bin; the zero class means no
// record in the bin matches.
type binClass uint8

const (
	binFull     binClass = 1 << iota // every record in the bin matches
	binBoundary                      // the interval cuts the bin: candidate check
)

// classify resolves every bin against iv, the one pass behind both the
// exact and the approximate evaluation. st counts the full and boundary
// bins; which bins those are depends only on the term's interval and
// the bounds, not on the terms it is combined with.
func (ix *Index) classify(iv query.Interval) ([]binClass, EvalStats) {
	var st EvalStats
	nb := ix.Bins()
	cls := make([]binClass, nb)
	min, max := ix.Min(), ix.Max()
	// Entirely outside the data range.
	if iv.Hi < min || (iv.Hi == min && iv.HiOpen) || iv.Lo > max || (iv.Lo == max && iv.LoOpen) {
		return cls, st
	}
	// Entire data range covered.
	if iv.Contains(min) && iv.Contains(max) {
		for b := range cls {
			cls[b] = binFull
		}
		st.FullBins = nb
		return cls, st
	}
	for b := range cls {
		blo, bhi := ix.Bounds[b], ix.Bounds[b+1]
		last := b == nb-1
		if !binOverlaps(iv, blo, bhi, last) {
			continue
		}
		switch {
		case binInside(iv, blo, bhi, last):
			cls[b] = binFull
		case ix.binResolvedByGranule(iv, b):
			// The bin's actual value range decides the bin without
			// touching raw data; when no actual value matches, it stays out.
			if iv.Contains(ix.BinMin[b]) {
				cls[b] = binFull
			}
		default:
			cls[b] = binBoundary
		}
		switch cls[b] {
		case binFull:
			st.FullBins++
		case binBoundary:
			st.BoundaryBins++
		}
	}
	return cls, st
}

// rowsIn returns the set of rows in [lo, hi) whose bin's class is in
// admit, bit i standing for row lo+i. The bins partition the rows, so
// that set is also the complement of every other bin's rows; rowsIn ORs
// whichever side carries fewer encoded words — for a wide range, the few
// bins it leaves out — and inverts the set when it ORed the other side.
// Rows are translated by FirstRow, so a cut index decodes from its first
// word; rows outside the bitmaps are an error.
func (ix *Index) rowsIn(cls []binClass, admit binClass, lo, hi uint64) (*bitmap.BitSet, error) {
	if !ix.covers(lo, hi) {
		first, end := ix.rows()
		return nil, fmt.Errorf("fastbit: %q: rows [%d, %d) outside the index's [%d, %d)", ix.Name, lo, hi, first, end)
	}
	var inWords, outWords int
	for b, bm := range ix.Bitmaps {
		if cls[b]&admit != 0 {
			inWords += bm.Words()
		} else {
			outWords += bm.Words()
		}
	}
	complement := inWords > outWords
	s := bitmap.NewBitSet(hi - lo)
	for b, bm := range ix.Bitmaps {
		if (cls[b]&admit != 0) != complement {
			bm.OrInto(s, lo-ix.FirstRow, hi-ix.FirstRow)
		}
	}
	if complement {
		s.Invert()
	}
	return s, nil
}

// binResolvedByGranule reports whether bin b's actual min/max values
// decide the bin's membership wholesale: either every actual value lies in
// iv or none does. Empty bins (min=+Inf) are trivially resolved.
func (ix *Index) binResolvedByGranule(iv query.Interval, b int) bool {
	if ix.BinMin == nil || ix.BinMax == nil {
		return false
	}
	lo, hi := ix.BinMin[b], ix.BinMax[b]
	if lo > hi { // empty bin
		return true
	}
	allIn := iv.Contains(lo) && iv.Contains(hi)
	noneIn := hi < iv.Lo || (hi == iv.Lo && iv.LoOpen) ||
		lo > iv.Hi || (lo == iv.Hi && iv.HiOpen)
	return allIn || noneIn
}

// binOverlaps reports whether bin [blo, bhi) (closed at bhi for the last
// bin) intersects iv.
func binOverlaps(iv query.Interval, blo, bhi float64, last bool) bool {
	// Bin is below the interval.
	if bhi < iv.Lo {
		return false
	}
	if bhi == iv.Lo && !last {
		// Bin excludes bhi, interval starts at or above it.
		return false
	}
	if bhi == iv.Lo && last {
		return iv.Contains(bhi)
	}
	// Bin is above the interval.
	if blo > iv.Hi || (blo == iv.Hi && (iv.HiOpen || blo == bhi)) {
		return false
	}
	if blo == iv.Hi {
		return iv.Contains(blo)
	}
	return true
}

// binInside reports whether every value that can fall in the bin is
// contained in iv.
func binInside(iv query.Interval, blo, bhi float64, last bool) bool {
	if !iv.Contains(blo) {
		return false
	}
	if last {
		return iv.Contains(bhi)
	}
	// Bin holds values in [blo, bhi); it is inside when bhi <= iv.Hi, or
	// bhi == iv.Hi with any openness (the bin never produces bhi itself).
	return bhi < iv.Hi || bhi == iv.Hi
}
