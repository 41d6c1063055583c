// Package histogram provides the 1D and 2D histogram value types used
// throughout the system, together with uniform (equal-width) and adaptive
// (equal-weight) bin boundary computation.
//
// A histogram takes one of two forms, each its own type, one per path.
// Hist1D and Hist2D hold dense counts, the grid a reader — a plot, a
// table, a scan kernel — reads bin by bin. Cells1D and Cells2D hold the
// cells form, a sum of compact count encodings (wire.go): what the
// serving path computes, merges, sends, caches and writes as JSON without
// a grid. A dense grid becomes cells through Cells, only where a kernel
// bins densely, and cells become a grid through Dense, only where a
// reader starts.
//
// Adaptive boundaries are derived the way the paper describes FastBit
// doing it: a finer-resolution uniform histogram is computed first and its
// bins are merged until each merged bin holds approximately the same
// number of records (Section V-A1).
package histogram

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// checkpointRows is the cancellation checkpoint interval of the binning
// loops: ctx is tested once every checkpointRows values, keeping the
// per-value overhead to a mask-and-compare.
const checkpointRows = 64 * 1024

// Binning selects between the two bin-boundary strategies compared in the
// paper (Section III-A3).
type Binning int

const (
	// Uniform bins have equal width; well suited to high-resolution views.
	Uniform Binning = iota
	// Adaptive bins hold approximately equal record counts; well suited to
	// low level-of-detail views.
	Adaptive
)

func (b Binning) String() string {
	switch b {
	case Uniform:
		return "uniform"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Binning(%d)", int(b))
	}
}

// AdaptiveRefine is the oversampling factor used when deriving adaptive
// boundaries from a fine uniform histogram.
const AdaptiveRefine = 8

// UniformEdges returns n+1 equally spaced edges spanning [lo, hi]. When
// lo == hi the range is widened by a tiny amount so every bin has positive
// width.
func UniformEdges(lo, hi float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	if hi <= lo {
		w := math.Abs(lo) * 1e-9
		if w == 0 {
			w = 1e-9
		}
		hi = lo + w
	}
	// Guard against ranges too narrow to split into n representable
	// steps at this magnitude: widen hi until each step moves the float.
	// At MaxFloat64 the ulp above is +Inf; the one below is finite.
	m := math.Max(math.Abs(lo), math.Abs(hi))
	ulp := math.Nextafter(m, math.Inf(1)) - m
	if math.IsInf(ulp, 1) {
		ulp = m - math.Nextafter(m, 0)
	}
	if minSpan := 4 * float64(n) * ulp; hi-lo < minSpan {
		hi = lo + minSpan
	}
	edges := make([]float64, n+1)
	step := (hi - lo) / float64(n)
	for i := 0; i <= n; i++ {
		edges[i] = lo + float64(i)*step
	}
	edges[n] = hi // avoid accumulated rounding at the top edge
	// Final guard: nudge any residual non-increasing neighbours.
	for i := 1; i <= n; i++ {
		if edges[i] <= edges[i-1] {
			edges[i] = math.Nextafter(edges[i-1], math.Inf(1))
		}
	}
	if edges[n] < hi {
		edges[n] = hi
	}
	return edges
}

// Locator maps values to bin indices for a fixed set of edges. It detects
// uniform spacing and uses a direct formula in that case; otherwise it
// falls back to binary search. The final bin's upper edge is inclusive so
// the maximum value of a dataset lands in the last bin. A per-value
// binning loop tries the inlined Guess first and calls Bin on a miss.
type Locator struct {
	edges   []float64
	lo, hi  float64
	inv     float64
	n       int
	uniform bool
}

// NewLocator builds a Locator for the given strictly increasing edges.
func NewLocator(edges []float64) (*Locator, error) {
	if len(edges) < 2 {
		return nil, fmt.Errorf("histogram: need at least 2 edges, got %d", len(edges))
	}
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			return nil, fmt.Errorf("histogram: edges not strictly increasing at %d", i)
		}
	}
	n := len(edges) - 1
	l := &Locator{edges: edges, lo: edges[0], hi: edges[n], n: n}
	step := (l.hi - l.lo) / float64(n)
	l.uniform = true
	for i := 1; i < n; i++ {
		if math.Abs(edges[i]-(l.lo+float64(i)*step)) > step*1e-9 {
			l.uniform = false
			break
		}
	}
	l.inv = 1 / step
	// A step of ±Inf (edges spanning more than MaxFloat64) or one whose
	// reciprocal overflows (subnormal) would turn (v-lo)*inv into NaN:
	// such edges are located by search instead.
	if math.IsInf(step, 0) || math.IsInf(l.inv, 0) {
		l.uniform = false
	}
	return l, nil
}

// Bins returns the number of bins.
func (l *Locator) Bins() int { return l.n }

// Edges returns the edge slice (not a copy; callers must not mutate).
func (l *Locator) Edges() []float64 { return l.edges }

// Guess returns v's bin when the uniform formula finds it: the bin
// i = int((v-lo)*inv) is accepted only when edges[i] <= v < edges[i+1],
// and for strictly increasing edges that bin is Bin(v). Anything else —
// the top edge, NaN, ±Inf, a value out of range, a formula off by
// rounding, non-uniform edges — gives -1, and the caller asks Bin.
// Guess is small enough to inline, so a per-value binning loop pays a
// call only on a miss:
//
//	i := l.Guess(v)
//	if i < 0 {
//		i = l.Bin(v)
//	}
func (l *Locator) Guess(v float64) int {
	i := int((v - l.lo) * l.inv)
	if uint(i) < uint(l.n) && l.edges[i] <= v && v < l.edges[i+1] {
		return i
	}
	return -1
}

// Bin returns the bin index for v, or -1 when v lies outside [lo, hi]
// or is NaN.
func (l *Locator) Bin(v float64) int {
	if !(v >= l.lo && v <= l.hi) {
		return -1
	}
	if v == l.hi {
		return l.n - 1
	}
	if l.uniform {
		i := int((v - l.lo) * l.inv)
		// Guard against floating point rounding at edges.
		if i >= l.n {
			i = l.n - 1
		}
		for i > 0 && v < l.edges[i] {
			i--
		}
		for i < l.n-1 && v >= l.edges[i+1] {
			i++
		}
		return i
	}
	// sort.SearchFloat64s finds the first edge > v, minus one.
	i := sort.SearchFloat64s(l.edges, v)
	if i < len(l.edges) && l.edges[i] == v {
		return minInt(i, l.n-1)
	}
	return i - 1
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Hist1D is a one-dimensional histogram with dense counts: the grid a
// reader — a plot, a table, a scan kernel — reads bin by bin. The
// serving path carries its cells form, Cells1D, instead.
type Hist1D struct {
	Var    string    // variable name, e.g. "px"
	Edges  []float64 // len Bins+1, strictly increasing
	Counts []uint64  // len Bins
}

// Bins returns the number of bins.
func (h *Hist1D) Bins() int { return len(h.Edges) - 1 }

// Total returns the total record count across all bins.
func (h *Hist1D) Total() uint64 { return sum(h.Counts) }

// MaxCount returns the largest single-bin count.
func (h *Hist1D) MaxCount() uint64 { return maxCount(h.Counts) }

// Width returns the width of bin i.
func (h *Hist1D) Width(i int) float64 { return h.Edges[i+1] - h.Edges[i] }

// Density returns count/width for bin i, the quantity the paper uses for
// brightness and draw ordering with adaptive bins.
func (h *Hist1D) Density(i int) float64 {
	w := h.Width(i)
	if w <= 0 {
		return 0
	}
	return float64(h.Counts[i]) / w
}

// Merge adds o's counts, over bit-identical edges, into h's.
func (h *Hist1D) Merge(o *Hist1D) error {
	if !sameEdges(h.Edges, o.Edges) {
		return fmt.Errorf("histogram: merge over other edges (%d vs %d)", len(h.Edges), len(o.Edges))
	}
	return addCounts(h.Counts, o.Counts)
}

// sameEdges reports whether two edge lists are bit for bit the same.
func sameEdges(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sum is the sum of dense counts.
func sum(counts []uint64) uint64 {
	var t uint64
	for _, c := range counts {
		t += c
	}
	return t
}

// maxCount is the largest of dense counts, 0 for none.
func maxCount(counts []uint64) uint64 {
	var m uint64
	for _, c := range counts {
		m = max(m, c)
	}
	return m
}

// addCounts adds the dense counts o into h.
func addCounts(h, o []uint64) error {
	if len(o) != len(h) {
		return fmt.Errorf("histogram: merge count mismatch %d vs %d", len(h), len(o))
	}
	for i := range h {
		h[i] += o[i]
	}
	return nil
}

// Compute1D builds a 1D histogram of values over the given edges. Values
// outside the edge range are ignored.
func Compute1D(name string, values []float64, edges []float64) (*Hist1D, error) {
	return Compute1DCtx(context.Background(), name, values, edges)
}

// Compute1DCtx is Compute1D with cooperative cancellation: the binning
// loop aborts with ctx.Err() within checkpointRows values of ctx being
// canceled. It is Binner1D's one-batch case.
func Compute1DCtx(ctx context.Context, name string, values []float64, edges []float64) (*Hist1D, error) {
	b, err := NewBinner1D(name, edges)
	if err != nil {
		return nil, err
	}
	if err := b.Add(ctx, values); err != nil {
		return nil, err
	}
	return b.Hist(), nil
}

// Binner1D bins values into dense counts batch by batch: the one 1D
// binning kernel. Compute1DCtx is its one-batch case; a visit over a row
// range adds each run of values as it comes, so no column is held.
type Binner1D struct {
	h   *Hist1D
	loc *Locator
}

// NewBinner1D returns a Binner1D of no values over the given edges.
func NewBinner1D(name string, edges []float64) (*Binner1D, error) {
	loc, err := NewLocator(edges)
	if err != nil {
		return nil, err
	}
	return &Binner1D{h: &Hist1D{Var: name, Edges: edges, Counts: make([]uint64, loc.Bins())}, loc: loc}, nil
}

// Add bins values; those outside the edges are ignored. It tests ctx
// before the first value and every checkpointRows values, and on
// cancellation returns ctx.Err() with the batch binned in part.
func (b *Binner1D) Add(ctx context.Context, values []float64) error {
	loc, counts := b.loc, b.h.Counts
	for row, v := range values {
		if row&(checkpointRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		i := loc.Guess(v)
		if i < 0 {
			if i = loc.Bin(v); i < 0 {
				continue
			}
		}
		counts[i]++
	}
	return nil
}

// Hist returns the counts of the values added.
func (b *Binner1D) Hist() *Hist1D { return b.h }

// Hist2D is a two-dimensional histogram over an (X, Y) variable pair,
// with dense counts stored row-major: Counts[iy*XBins + ix]. As with
// Hist1D, the serving path carries its cells form, Cells2D.
type Hist2D struct {
	XVar, YVar     string
	XEdges, YEdges []float64
	Counts         []uint64
}

// XBins returns the number of bins along X.
func (h *Hist2D) XBins() int { return len(h.XEdges) - 1 }

// YBins returns the number of bins along Y.
func (h *Hist2D) YBins() int { return len(h.YEdges) - 1 }

// At returns the count in bin (ix, iy).
func (h *Hist2D) At(ix, iy int) uint64 { return h.Counts[iy*h.XBins()+ix] }

// Total returns the total record count across all bins.
func (h *Hist2D) Total() uint64 { return sum(h.Counts) }

// MaxCount returns the largest single-bin count.
func (h *Hist2D) MaxCount() uint64 { return maxCount(h.Counts) }

// Area returns the area of bin (ix, iy).
func (h *Hist2D) Area(ix, iy int) float64 {
	return (h.XEdges[ix+1] - h.XEdges[ix]) * (h.YEdges[iy+1] - h.YEdges[iy])
}

// Density returns the record density h(i,j)/a(i,j) of bin (ix, iy), the
// quantity the paper uses to order and shade adaptively binned plots.
func (h *Hist2D) Density(ix, iy int) float64 {
	a := h.Area(ix, iy)
	if a <= 0 {
		return 0
	}
	return float64(h.At(ix, iy)) / a
}

// NonEmpty calls fn for every bin with a nonzero count.
func (h *Hist2D) NonEmpty(fn func(ix, iy int, count uint64)) {
	nx := h.XBins()
	for iy := 0; iy < h.YBins(); iy++ {
		row := h.Counts[iy*nx : (iy+1)*nx]
		for ix, c := range row {
			if c != 0 {
				fn(ix, iy, c)
			}
		}
	}
}

// Merge is Hist1D.Merge for 2D histograms: both axes' edges must be bit
// for bit the same.
func (h *Hist2D) Merge(o *Hist2D) error {
	if !sameEdges(h.XEdges, o.XEdges) || !sameEdges(h.YEdges, o.YEdges) {
		return fmt.Errorf("histogram: merge over other edges (%d,%d) vs (%d,%d)",
			len(h.XEdges), len(h.YEdges), len(o.XEdges), len(o.YEdges))
	}
	return addCounts(h.Counts, o.Counts)
}

// Compute2D builds a 2D histogram of paired (xs, ys) values over the given
// edges. Pairs with either coordinate outside its range are ignored.
func Compute2D(xvar, yvar string, xs, ys []float64, xedges, yedges []float64) (*Hist2D, error) {
	return Compute2DCtx(context.Background(), xvar, yvar, xs, ys, xedges, yedges)
}

// Compute2DCtx is Compute2D with cooperative cancellation at
// checkpointRows intervals. It is a dense Binner2D's one-batch case.
func Compute2DCtx(ctx context.Context, xvar, yvar string, xs, ys []float64, xedges, yedges []float64) (*Hist2D, error) {
	b, err := NewDenseBinner2D(xvar, yvar, xedges, yedges)
	if err != nil {
		return nil, err
	}
	if err := b.Add(ctx, xs, ys); err != nil {
		return nil, err
	}
	return b.Hist(), nil
}

// sparseDivisor sets how a partial's Binner2D bins: n pairs go straight
// into the cells form when n < cells/sparseDivisor, and through a pooled
// grid otherwise. BenchmarkCompute2D (bin, then encode for the wire; uniform
// random pairs, the worst case for occupancy) puts the two at par near
// cells/4 on 256² and 512² grids, before and after both located bins
// inline; on 1024² the cells form still leads there, by ~40 %, but the
// pooled grid allocates nothing per pair. End to
// end, cells/16 and binning every partial through the grid both did
// worse on explore_shard3 (DESIGN §13.8).
const sparseDivisor = 4

// Partial2DCtx is Compute2DCtx for a partial that will be merged, sent or
// answered rather than read: it bins straight into the cells form, the
// compact count encoding a decoded partial holds. It is Binner2D's
// one-batch case.
func Partial2DCtx(ctx context.Context, xvar, yvar string, xs, ys []float64, xedges, yedges []float64) (*Cells2D, error) {
	b, err := NewBinner2D(xvar, yvar, xedges, yedges, uint64(len(xs)))
	if err != nil {
		return nil, err
	}
	return b.oneBatch(ctx, xs, ys)
}

// oneBatch adds the pairs as the binner's one batch and returns them in
// the cells form.
func (b *Binner2D) oneBatch(ctx context.Context, xs, ys []float64) (*Cells2D, error) {
	defer b.Release()
	if err := b.Add(ctx, xs, ys); err != nil {
		return nil, err
	}
	return b.Cells(), nil
}

// Binner2D bins (x, y) pairs batch by batch: the one 2D binning kernel.
// Partial2DCtx and Compute2DCtx are its one-batch cases; a visit over a
// row range adds each run of rows as it comes, so no column is held. A
// partial's binner (NewBinner2D) bins into the cells form, by a path
// that the number of pairs, declared up front, picks: few pairs against
// the grid (see sparseDivisor) are binned as their cell indices, sorted
// at the end; the rest into a pooled grid — uint32 counts, uint64 from
// 2³² pairs up — that is encoded and cleared in one pass. No grid is
// allocated or zeroed per partial. A reader's binner (NewDenseBinner2D)
// bins into a fresh grid of uint64 counts, which Hist hands over.
//
// A partial's binner holds pooled memory from NewBinner2D to Cells or
// Release, and gives it back all-zero whichever way the binning ends —
// finished, cancelled, or abandoned when the read feeding it fails — so
// a caller defers Release as soon as it has one.
type Binner2D struct {
	xvar, yvar     string
	xedges, yedges []float64
	lx, ly         *Locator
	pairs, room    uint64   // pairs declared; of those, not added yet
	grid           []uint32 // pooledGrid
	wide           []uint64 // freshGrid
	idx            []uint32 // sortedCells: the cell index of each pair binned
	k              int      // sortedCells: indices in idx
}

// binPath is where a Binner2D puts its counts.
type binPath int

const (
	pooledGrid  binPath = iota // a pooled grid of uint32 cells
	sortedCells                // the cell index of each pair, sorted at the end
	freshGrid                  // a fresh grid of uint64 cells
)

// NewBinner2D returns a partial's Binner2D of no pairs, for at most pairs
// pairs, over the given edges.
func NewBinner2D(xvar, yvar string, xedges, yedges []float64, pairs uint64) (*Binner2D, error) {
	path := pooledGrid
	switch cells := (len(xedges) - 1) * (len(yedges) - 1); {
	case pairs < uint64(max(cells, 0)/sparseDivisor):
		path = sortedCells
	case pairs > math.MaxUint32: // more than a uint32 cell counts
		path = freshGrid
	}
	return newBinner2D(xvar, yvar, xedges, yedges, pairs, path)
}

// NewDenseBinner2D returns a reader's Binner2D of no pairs over the given
// edges: its counts are dense (Hist).
func NewDenseBinner2D(xvar, yvar string, xedges, yedges []float64) (*Binner2D, error) {
	return newBinner2D(xvar, yvar, xedges, yedges, math.MaxUint64, freshGrid)
}

func newBinner2D(xvar, yvar string, xedges, yedges []float64, pairs uint64, path binPath) (*Binner2D, error) {
	lx, err := NewLocator(xedges)
	if err != nil {
		return nil, fmt.Errorf("histogram: x edges: %w", err)
	}
	ly, err := NewLocator(yedges)
	if err != nil {
		return nil, fmt.Errorf("histogram: y edges: %w", err)
	}
	b := &Binner2D{xvar: xvar, yvar: yvar, xedges: xedges, yedges: yedges, lx: lx, ly: ly, pairs: pairs, room: pairs}
	switch n := lx.Bins() * ly.Bins(); path {
	case sortedCells:
		if pairs > 0 {
			b.idx = getGrid(int(pairs))
		}
	case freshGrid:
		b.wide = make([]uint64, n)
	default:
		b.grid = getGrid(n)
	}
	return b, nil
}

// Add bins the pairs; those with either coordinate outside its edges are
// ignored. It tests ctx before the first pair and every checkpointRows
// pairs; after an error the binner is only good for Release.
func (b *Binner2D) Add(ctx context.Context, xs, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("histogram: length mismatch %d vs %d", len(xs), len(ys))
	}
	if uint64(len(xs)) > b.room {
		return fmt.Errorf("histogram: %d pairs past the %d declared", len(xs), b.room)
	}
	b.room -= uint64(len(xs))
	switch {
	case b.grid != nil:
		return binGrid(ctx, b.grid, b.lx, b.ly, xs, ys)
	case b.wide != nil:
		return binGrid(ctx, b.wide, b.lx, b.ly, xs, ys)
	}
	k, err := binCells(ctx, b.idx[b.k:], b.lx, b.ly, xs, ys)
	b.k += k
	return err
}

// Hist returns the dense counts of a reader's binner (NewDenseBinner2D).
func (b *Binner2D) Hist() *Hist2D {
	return &Hist2D{XVar: b.xvar, YVar: b.yvar, XEdges: b.xedges, YEdges: b.yedges, Counts: b.wide}
}

// Cells returns the pairs added in the cells form and gives the pooled
// memory back.
func (b *Binner2D) Cells() *Cells2D {
	var e encoding
	switch n, pairs := b.lx.Bins()*b.ly.Bins(), int(min(b.pairs-b.room, math.MaxInt32)); {
	case b.grid != nil:
		e = encodeBinned(b.grid, pairs)
		putGrid(b.grid) // all-zero: encoded
		b.grid = nil
	case b.wide != nil:
		e = encodeBinned(b.wide, pairs)
	case b.k == 0:
		e = encodeCells(n, nil, nil)
	default:
		tmp := getGrid(b.k)
		e = encodeCells(n, b.idx[:b.k], tmp)
		clear(tmp)
		putGrid(tmp)
	}
	b.Release()
	return &Cells2D{XVar: b.xvar, YVar: b.yvar, XEdges: b.xedges, YEdges: b.yedges, cells: []encoding{e}}
}

// Release gives the pooled memory back all-zero; it is a no-op after
// Cells or another Release.
func (b *Binner2D) Release() {
	if b.grid != nil {
		clear(b.grid)
		putGrid(b.grid)
	}
	if b.idx != nil {
		clear(b.idx[:b.k])
		putGrid(b.idx)
	}
	b.grid, b.wide, b.idx, b.k = nil, nil, nil, 0
}

// encodeBinned encodes the grid g of binned counts, which leaves g
// all-zero again. pairs bounds the non-zero cells: the encoding is sized
// for two bytes a cell, a gap and a count, the common case, and far fewer
// cells than that is copied down to size.
func encodeBinned[T uint32 | uint64](g []T, pairs int) encoding {
	b, t := appendGrid(make([]byte, 0, 16+2*min(pairs, len(g))), g, true)
	if cap(b) > 2*len(b)+wireHead {
		b = slices.Clone(b)
	}
	return encoding{b, t}
}

// binCells writes the cell index of each pair inside the locators' edges
// into idx, which has room for every pair, and returns how many it
// wrote; it tests ctx as binGrid does.
func binCells(ctx context.Context, idx []uint32, lx, ly *Locator, xs, ys []float64) (int, error) {
	nx, k := lx.Bins(), 0
	for i := range xs {
		if i&(checkpointRows-1) == 0 {
			if err := ctx.Err(); err != nil {
				return k, err
			}
		}
		x, y := xs[i], ys[i]
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
		idx[k] = uint32(iy*nx + ix)
		k++
	}
	return k, nil
}

// encodeCells returns the compact count encoding of a grid of n cells
// given the cell index of every binned value, in any order, and scratch
// of the same length for the sort: sorted, equal indices are one cell's
// count. The encoding is canonical, so it is the bytes appendGrid writes
// for the dense counts.
func encodeCells(n int, idx, tmp []uint32) encoding {
	idx = sortCells(idx, tmp, n)
	// Each run of equal indices is a cell, written as its gap and its
	// count: one walk over the runs sizes the encoding exactly, a second
	// writes it.
	size := uvarintLen(uint64(n)) + 1
	for i, prev := 0, -1; i < len(idx); {
		j := i + 1
		for j < len(idx) && idx[j] == idx[i] {
			j++
		}
		size += uvarintLen(uint64(int(idx[i])-prev)) + uvarintLen(uint64(j-i))
		prev, i = int(idx[i]), j
	}
	cells := binary.AppendUvarint(make([]byte, 0, size), uint64(n))
	prev := -1
	for i := 0; i < len(idx); {
		j := i + 1
		for j < len(idx) && idx[j] == idx[i] {
			j++
		}
		cells = binary.AppendUvarint(cells, uint64(int(idx[i])-prev))
		cells = binary.AppendUvarint(cells, uint64(j-i))
		prev, i = int(idx[i]), j
	}
	return encoding{append(cells, 0), uint64(len(idx))}
}

// sortCells sorts cell indices below n, a byte a pass from the lowest
// (an LSD radix sort: two passes for a 256² grid, three for 1024²),
// through tmp, which is as long as idx, and returns the sorted slice, idx
// or tmp.
func sortCells(idx, tmp []uint32, n int) []uint32 {
	for shift := 0; (n-1)>>shift > 0; shift += 8 {
		var at [257]int
		for _, c := range idx {
			at[(c>>shift)&0xff+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
		for _, c := range idx {
			d := (c >> shift) & 0xff
			tmp[at[d]] = c
			at[d]++
		}
		idx, tmp = tmp, idx
	}
	return idx
}

// uvarintLen is the length of v's uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}
