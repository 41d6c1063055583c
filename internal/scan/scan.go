// Package scan implements the sequential-scan baseline the paper labels
// "Custom" in its performance charts: histogram computation and particle
// selection without any index structure. The paper built this baseline
// (rather than timing the scientists' IDL scripts) for a fair comparison;
// we reproduce it the same way.
//
// Per the paper's description, the custom ID search compares each record's
// identifier against a sorted search set with binary search, giving
// O(N log S) for N records and a search set of size S, while the custom
// histogram code organises bin counts as a slice-of-slices ("the
// difference in organization of the histogram bin counts array"), versus
// FastBit's flat array.
package scan

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
)

// CheckpointRows is the cancellation checkpoint interval: scan loops test
// the context once every CheckpointRows rows, so a canceled query stops
// within one interval while the per-row overhead stays unmeasurable.
const CheckpointRows = 64 * 1024

// checkpoint returns ctx.Err() at every CheckpointRows-th row; other rows
// cost a single mask-and-compare.
func checkpoint(ctx context.Context, row int) error {
	if row&(CheckpointRows-1) == 0 {
		return ctx.Err()
	}
	return nil
}

// Columns provides named in-memory columns for one timestep.
type Columns map[string][]float64

// rows returns the common row count, or an error when columns disagree.
func (c Columns) rows() (int, error) {
	n := -1
	for name, col := range c {
		if n == -1 {
			n = len(col)
		} else if len(col) != n {
			return 0, fmt.Errorf("scan: column %q has %d rows, expected %d", name, len(col), n)
		}
	}
	if n == -1 {
		n = 0
	}
	return n, nil
}

// ValidateVars checks that every variable referenced by e is present.
func ValidateVars(c Columns, e query.Expr) error {
	for _, v := range query.Vars(e) {
		if _, ok := c[v]; !ok {
			return fmt.Errorf("scan: query references unknown variable %q", v)
		}
	}
	return nil
}

// bindCond compiles an optional histogram condition against c; nil for an
// unconditional histogram.
func bindCond(c Columns, cond query.Expr) (func(row int) bool, error) {
	if cond == nil {
		return nil, nil
	}
	if err := ValidateVars(c, cond); err != nil {
		return nil, err
	}
	return query.Bind(cond, c), nil
}

// SelectCtx returns the sorted row positions matching the expression, by
// evaluating it against every record, with cooperative cancellation: the
// scan aborts with ctx.Err() within CheckpointRows rows of ctx being
// canceled.
func SelectCtx(ctx context.Context, c Columns, e query.Expr) ([]uint64, error) {
	if err := ValidateVars(c, e); err != nil {
		return nil, err
	}
	n, err := c.rows()
	if err != nil {
		return nil, err
	}
	ctx, sp := startScanSpan(ctx, "scan-select", n)
	start := time.Now()
	match := query.Bind(e, c)
	var out []uint64
	for row := 0; row < n; row++ {
		if err := checkpoint(ctx, row); err != nil {
			sp.End()
			return nil, err
		}
		if match(row) {
			out = append(out, uint64(row))
		}
	}
	observeScan(ctx, n, time.Since(start).Seconds())
	sp.End()
	return out, nil
}

// Count returns the number of records matching the expression.
func Count(c Columns, e query.Expr) (uint64, error) {
	return CountCtx(context.Background(), c, e)
}

// CountCtx is Count with cooperative cancellation.
func CountCtx(ctx context.Context, c Columns, e query.Expr) (uint64, error) {
	if err := ValidateVars(c, e); err != nil {
		return 0, err
	}
	n, err := c.rows()
	if err != nil {
		return 0, err
	}
	ctx, sp := startScanSpan(ctx, "scan-count", n)
	start := time.Now()
	match := query.Bind(e, c)
	var cnt uint64
	for row := 0; row < n; row++ {
		if err := checkpoint(ctx, row); err != nil {
			sp.End()
			return 0, err
		}
		if match(row) {
			cnt++
		}
	}
	observeScan(ctx, n, time.Since(start).Seconds())
	sp.End()
	return cnt, nil
}

// ConditionalHistogram2DCtx computes a 2D histogram restricted to records
// matching cond (pass nil for unconditional), with cooperative
// cancellation at CheckpointRows intervals. Every record is visited. Bin
// counts use a slice-of-slices layout, mirroring the paper's description
// of the custom code's memory organisation.
func ConditionalHistogram2DCtx(ctx context.Context, c Columns, xvar, yvar string, cond query.Expr, xEdges, yEdges []float64) (*histogram.Hist2D, error) {
	xs, ok := c[xvar]
	if !ok {
		return nil, fmt.Errorf("scan: unknown variable %q", xvar)
	}
	ys, ok := c[yvar]
	if !ok {
		return nil, fmt.Errorf("scan: unknown variable %q", yvar)
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("scan: column length mismatch %d vs %d", len(xs), len(ys))
	}
	match, err := bindCond(c, cond)
	if err != nil {
		return nil, err
	}
	lx, err := histogram.NewLocator(xEdges)
	if err != nil {
		return nil, fmt.Errorf("scan: x edges: %w", err)
	}
	ly, err := histogram.NewLocator(yEdges)
	if err != nil {
		return nil, fmt.Errorf("scan: y edges: %w", err)
	}
	ctx, sp := startScanSpan(ctx, "scan-hist2d", len(xs))
	start := time.Now()
	// Slice-of-slices bin counts: the custom code's layout.
	counts := make([][]uint64, ly.Bins())
	for i := range counts {
		counts[i] = make([]uint64, lx.Bins())
	}
	for row := range xs {
		if err := checkpoint(ctx, row); err != nil {
			sp.End()
			return nil, err
		}
		if match != nil && !match(row) {
			continue
		}
		x, y := xs[row], ys[row]
		ix := lx.Guess(x)
		if ix < 0 {
			if ix = lx.Bin(x); ix < 0 {
				continue
			}
		}
		iy := ly.Guess(y)
		if iy < 0 {
			if iy = ly.Bin(y); iy < 0 {
				continue
			}
		}
		counts[iy][ix]++
	}
	observeScan(ctx, len(xs), time.Since(start).Seconds())
	sp.End()
	h := &histogram.Hist2D{
		XVar: xvar, YVar: yvar,
		XEdges: xEdges, YEdges: yEdges,
		Counts: make([]uint64, lx.Bins()*ly.Bins()),
	}
	for iy, row := range counts {
		copy(h.Counts[iy*lx.Bins():(iy+1)*lx.Bins()], row)
	}
	return h, nil
}

// Histogram1DCtx computes a conditional 1D histogram by full scan, with
// cooperative cancellation; cond may be nil.
func Histogram1DCtx(ctx context.Context, c Columns, v string, cond query.Expr, edges []float64) (*histogram.Hist1D, error) {
	vs, ok := c[v]
	if !ok {
		return nil, fmt.Errorf("scan: unknown variable %q", v)
	}
	match, err := bindCond(c, cond)
	if err != nil {
		return nil, err
	}
	loc, err := histogram.NewLocator(edges)
	if err != nil {
		return nil, err
	}
	ctx, sp := startScanSpan(ctx, "scan-hist1d", len(vs))
	start := time.Now()
	h := &histogram.Hist1D{Var: v, Edges: edges, Counts: make([]uint64, loc.Bins())}
	for row := range vs {
		if err := checkpoint(ctx, row); err != nil {
			sp.End()
			return nil, err
		}
		if match != nil && !match(row) {
			continue
		}
		v := vs[row]
		i := loc.Guess(v)
		if i < 0 {
			if i = loc.Bin(v); i < 0 {
				continue
			}
		}
		h.Counts[i]++
	}
	observeScan(ctx, len(vs), time.Since(start).Seconds())
	sp.End()
	return h, nil
}

// MinMax returns the minimum and maximum of a column by full scan. NaN
// values are skipped wherever they sit; an all-NaN column gives (NaN,
// NaN) and an empty one (0, 0).
func MinMax(values []float64) (lo, hi float64) {
	if len(values) == 0 {
		return 0, 0
	}
	first := 0
	for first < len(values) && math.IsNaN(values[first]) {
		first++
	}
	if first == len(values) {
		return math.NaN(), math.NaN()
	}
	// Past the first number every comparison with a NaN is false, so the
	// loop skips NaN without testing for it.
	lo, hi = values[first], values[first]
	for _, v := range values[first+1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// FindIDsCtx returns the sorted row positions whose identifier appears in
// searchSet, using the paper's custom algorithm: one pass over all N
// records, binary-searching each identifier in the sorted set — O(N log S)
// — with cooperative cancellation.
func FindIDsCtx(ctx context.Context, ids []int64, searchSet []int64) ([]uint64, error) {
	set := append([]int64(nil), searchSet...)
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	ctx, sp := startScanSpan(ctx, "scan-find-ids", len(ids))
	start := time.Now()
	var out []uint64
	for row, id := range ids {
		if err := checkpoint(ctx, row); err != nil {
			sp.End()
			return nil, err
		}
		i := sort.Search(len(set), func(k int) bool { return set[k] >= id })
		if i < len(set) && set[i] == id {
			out = append(out, uint64(row))
		}
	}
	observeScan(ctx, len(ids), time.Since(start).Seconds())
	sp.End()
	return out, nil
}

// startScanSpan opens a span for one scan pass, annotated with the row
// count. The returned context carries the span for nested checkpoints.
func startScanSpan(ctx context.Context, name string, rows int) (context.Context, *obs.Span) {
	ctx, sp := obs.StartSpan(ctx, name)
	sp.SetAttr("rows", strconv.Itoa(rows))
	return ctx, sp
}
