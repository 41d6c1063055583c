// Package plan splits query serving into a planner and an executor, the
// Hillview scatter-gather architecture: a frontend canonicalizes a request
// into an operation, consults the shard map to cut it into row-range
// fragments, scatters the fragments to shard workers, and merges the
// partial results. Histograms, counts, and min/max ranges are all
// mergeable, so the merged answer is identical to the single-process one.
// "Local" execution is exactly the one-shard case of the same path.
package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/fastquery"
	"repro/internal/histogram"
)

// Op is the operation a client asked for.
type Op int

const (
	// OpCount counts the rows matching a query.
	OpCount Op = iota
	// OpHist1D builds a conditional 1D histogram.
	OpHist1D
	// OpHist2D builds a conditional 2D histogram.
	OpHist2D
	// OpSelect materializes the matching row positions — the analysis-
	// session primitive: the serving layer compresses the merged positions
	// into a selection bitmap it can refine incrementally.
	OpSelect
)

func (o Op) String() string {
	switch o {
	case OpCount:
		return "count"
	case OpHist1D:
		return "hist1d"
	case OpHist2D:
		return "hist2d"
	case OpSelect:
		return "select"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// FragOp is the operation a single fragment performs on its shard.
type FragOp int

const (
	// FragCount counts matching rows inside the fragment's row range.
	FragCount FragOp = iota
	// FragMinMax computes per-variable min/max over the matching rows
	// inside the fragment's row range (phase one of a two-phase
	// histogram whose bin range is derived from the data).
	FragMinMax
	// FragHist1D bins matching rows inside the row range against its
	// spec. A scattered fragment carries a resolved spec — its range and
	// any adaptive cuts — so partials merge bin-wise; one process's
	// whole-step fragment carries the client's spec, its edges resolved
	// from the rows it bins.
	FragHist1D
	// FragHist2D is FragHist1D over a variable pair.
	FragHist2D
	// FragSelect returns the sorted matching row positions inside the
	// fragment's row range. Shard ranges are contiguous and disjoint, so
	// partials merge by concatenation in shard order and the union is
	// byte-identical to a single-process selection.
	FragSelect
)

func (o FragOp) String() string {
	switch o {
	case FragCount:
		return "count"
	case FragMinMax:
		return "minmax"
	case FragHist1D:
		return "hist1d"
	case FragHist2D:
		return "hist2d"
	case FragSelect:
		return "select"
	default:
		return fmt.Sprintf("FragOp(%d)", int(o))
	}
}

// RowRange is a half-open [Lo, Hi) row-position interval within a step.
// The zero value means "the whole step".
type RowRange struct {
	Lo, Hi uint64
}

// Whole reports whether the range means the entire step.
func (r RowRange) Whole() bool { return r.Lo == 0 && r.Hi == 0 }

// Query is a canonicalized client operation, the planner's input. Query
// text must already be in canonical form (query.Canonical) so that equal
// requests produce equal fragments and cache keys.
type Query struct {
	Op      Op
	Dataset string
	Step    int
	Query   string // canonical query text; "" means unconditional
	Backend fastquery.Backend
	Spec1   histogram.Spec1D // OpHist1D
	Spec2   histogram.Spec2D // OpHist2D
}

// Fragment is one unit of work sent to a shard worker.
type Fragment struct {
	Op      FragOp
	Dataset string
	Step    int
	Rows    RowRange
	Query   string
	Backend fastquery.Backend
	Vars    []string         // FragMinMax: variables needing ranges
	Spec1   histogram.Spec1D // FragHist1D
	Spec2   histogram.Spec2D // FragHist2D
}

// fmtG formats a float the way cache keys elsewhere in the system do:
// shortest round-trippable representation (NaN formats as "NaN", which is
// fine — distinct from every number).
func fmtG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Key returns a canonical identity for the fragment, used for shard-local
// result caching. Two fragments with equal keys compute identical results
// over the same data generation; a histogram's key holds its resolved
// cuts, which decide its edges.
func (f Fragment) Key() string {
	parts := []string{
		f.Op.String(),
		f.Dataset,
		strconv.Itoa(f.Step),
		strconv.FormatUint(f.Rows.Lo, 10),
		strconv.FormatUint(f.Rows.Hi, 10),
		f.Query,
		f.Backend.String(),
	}
	switch f.Op {
	case FragMinMax:
		parts = append(parts, strings.Join(f.Vars, ","))
	case FragHist1D:
		parts = append(parts, f.Spec1.Var,
			strconv.Itoa(f.Spec1.Bins), f.Spec1.Binning.String(),
			fmtG(f.Spec1.Lo), fmtG(f.Spec1.Hi), fmtG(f.Spec1.MinDensity), fmtCuts(f.Spec1.Cuts))
	case FragHist2D:
		parts = append(parts, f.Spec2.XVar, f.Spec2.YVar,
			strconv.Itoa(f.Spec2.XBins), strconv.Itoa(f.Spec2.YBins),
			f.Spec2.Binning.String(),
			fmtG(f.Spec2.XLo), fmtG(f.Spec2.XHi),
			fmtG(f.Spec2.YLo), fmtG(f.Spec2.YHi), fmtG(f.Spec2.MinDensity),
			fmtCuts(f.Spec2.XCuts), fmtCuts(f.Spec2.YCuts))
	}
	return strings.Join(parts, "\x1f")
}

// fmtCuts formats cut indices for a key: "" when there are none.
func fmtCuts(cuts []int) string {
	var b []byte
	for _, c := range cuts {
		b = strconv.AppendInt(append(b, ','), int64(c), 10)
	}
	return string(b)
}

// VarRange is a per-variable min/max partial. N is the number of selected
// rows the range was computed over; a part with N == 0 contributes
// nothing to the merge.
type VarRange struct {
	Var    string
	Lo, Hi float64
	N      uint64
}

// FragmentResult is the mergeable partial a shard returns for a fragment.
// Exactly one field group is populated, per the fragment's Op.
type FragmentResult struct {
	Count  uint64             // FragCount / FragSelect (position count)
	MinMax []VarRange         // FragMinMax
	Hist1  *histogram.Cells1D // FragHist1D
	Hist2  *histogram.Cells2D // FragHist2D
	Sel    []uint64           // FragSelect: sorted global row positions
}

// CacheEntryOverhead is the fixed cost of one cached answer, whatever its
// payload: the store entry, the map slot, the result struct and
// the histogram and slice headers. Without it a stream of count-only
// answers, charged ~50 key bytes apiece, would admit a million entries.
const CacheEntryOverhead = 256

// CacheBytes is what r costs cached under key against the serving
// layer's result cache budget: the fixed overhead, its key, count
// encodings, edges, positions and its encoded answer.
func (r *Result) CacheBytes(key string) int {
	n := CacheEntryOverhead + len(key) + 8*len(r.Sel) + cap(r.Answer)
	if r.Hist1 != nil {
		n += r.Hist1.CountBytes() + 8*len(r.Hist1.Edges)
	}
	if r.Hist2 != nil {
		n += r.Hist2.CountBytes() + 8*(len(r.Hist2.XEdges)+len(r.Hist2.YEdges))
	}
	return n
}

// Result is the merged answer the planner returns to the serving layer.
type Result struct {
	Count uint64
	// Hist1 and Hist2 are the merged histogram in the cells form, and
	// read-only: cached partials may share their encodings.
	Hist1 *histogram.Cells1D
	Hist2 *histogram.Cells2D
	// Sel is OpSelect's answer: the sorted matching row positions over the
	// whole step (the concatenation of the per-shard partials).
	Sel []uint64
	// Answer is the serving layer's JSON encoding of the answer, which it
	// keeps in place of the histogram: encoded once, written on
	// every hit.
	Answer []byte

	// Partial is true when one or more shards failed and the policy
	// allowed merging the survivors; Failed lists the dead shards.
	Partial bool
	Failed  []int

	// BudgetExhausted is true when at least one of the failed shards was
	// lost to deadline-budget exhaustion rather than an outright error —
	// the marker the slow-query log and explain surface expose so a
	// degraded answer can be told apart from a shard outage.
	BudgetExhausted bool

	// Mode records how the plan executed ("scatter" or "local") and
	// Fragments how many fragment executions it attempted,
	// for stats and the benchmark harness.
	Mode      string
	Fragments int
}

// ShardMap describes how step rows are partitioned across shard workers.
// Every worker reads the same shared dataset directory (the paper's
// parallel-filesystem model), so the map assigns work, not data: shard i
// owns the i-th contiguous row range of every step, and on a fleet every
// fragment is one shard's range.
type ShardMap struct {
	Shards int
}

// Range returns shard i's row range for a step with the given row count.
// Ranges are contiguous, disjoint, cover [0, rows), and differ in size by
// at most one row.
func (m ShardMap) Range(i int, rows uint64) RowRange {
	n := uint64(m.Shards)
	if n <= 1 {
		return RowRange{0, rows}
	}
	base := rows / n
	rem := rows % n
	lo := base*uint64(i) + minU64(uint64(i), rem)
	size := base
	if uint64(i) < rem {
		size++
	}
	return RowRange{lo, lo + size}
}

// mode names how a plan over m executes: "local" in one process, else
// "scatter".
func (m ShardMap) mode() string {
	if m.Shards <= 1 {
		return "local"
	}
	return "scatter"
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// mergeRanges folds per-shard min/max partials into one range per
// requested variable, the way scan.MinMax folds values: in row order
// (shard order), skipping parts with N == 0 (no selected rows on that
// shard) and all-NaN parts, and replacing an extreme only by a strictly
// smaller or larger one, so a tie between -0 and +0 keeps the sign seen
// first. When no shard selected any rows the merged range collapses to
// (0, 0), matching scan.MinMax on an empty slice — which is what the
// single-process path computes in that case.
func mergeRanges(vars []string, parts []*FragmentResult) map[string]VarRange {
	out := make(map[string]VarRange, len(vars))
	for _, v := range vars {
		merged := VarRange{Var: v}
		for _, p := range parts {
			if p == nil {
				continue
			}
			for _, vr := range p.MinMax {
				if vr.Var != v || vr.N == 0 {
					continue
				}
				if merged.N == 0 || math.IsNaN(merged.Lo) {
					merged.Lo, merged.Hi = vr.Lo, vr.Hi
				}
				if vr.Lo < merged.Lo {
					merged.Lo = vr.Lo
				}
				if vr.Hi > merged.Hi {
					merged.Hi = vr.Hi
				}
				merged.N += vr.N
			}
		}
		out[v] = merged
	}
	return out
}
