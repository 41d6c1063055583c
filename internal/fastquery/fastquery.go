// Package fastquery is the query/histogram veneer over the columnar
// storage layer — the analogue of HDF5-FastQuery in the paper's stack
// (Section V): an implementation-neutral API for evaluating compound range
// queries, extracting particle subsets and computing conditional
// histograms over one timestep, with a choice of execution backend.
//
// Two backends implement every operation:
//
//	FastBit — bitmap-index accelerated (requires the sidecar index file)
//	Scan    — the paper's "Custom" sequential-scan baseline
//
// Both produce identical results; the performance comparison between them
// is the subject of the paper's evaluation section.
//
// # Concurrency
//
// Source and Step are safe for concurrent readers: any number of
// goroutines may call CountCtx, SelectCtx, Histogram1DCtx/2DCtx and
// MinMax on the same Step (or open Steps from the same Source) simultaneously. Data
// reads use positioned I/O (ReadAt), the lazy index guards its section
// caches with a mutex, and every evaluation allocates its own scratch
// state. Close must not race with in-flight queries on the same Step.
package fastquery

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/fastbit"
	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/scan"
)

// Backend selects the execution strategy for queries and histograms.
type Backend int

// Available backends.
const (
	FastBit Backend = iota
	Scan
)

func (b Backend) String() string {
	switch b {
	case FastBit:
		return "fastbit"
	case Scan:
		return "custom"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Source is an open multi-timestep dataset. A Source can track a growing
// dataset: Reload re-reads the on-disk metadata and atomically swaps in
// the new step count, so a live ingestion pipeline appends timesteps to a
// dataset that is being served without a restart.
type Source struct {
	dir    string
	ds     atomic.Pointer[colstore.Dataset]
	closed atomic.Bool

	mu            sync.Mutex
	indexFailures map[int]string // timestep -> why its index was rejected
}

// IndexFailure records one timestep whose sidecar index could not be used.
type IndexFailure struct {
	Step   int    `json:"step"`
	Reason string `json:"reason"`
}

// IndexFailures reports every timestep whose index was rejected at open
// time (truncated, CRC mismatch, row-count mismatch) and therefore serves
// scan-backend queries only, sorted by timestep.
func (s *Source) IndexFailures() []IndexFailure {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]IndexFailure, 0, len(s.indexFailures))
	for t, reason := range s.indexFailures {
		out = append(out, IndexFailure{Step: t, Reason: reason})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// recordIndexFailure notes a rejected index for the stats endpoint.
func (s *Source) recordIndexFailure(t int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.indexFailures == nil {
		s.indexFailures = map[int]string{}
	}
	s.indexFailures[t] = err.Error()
}

// Open opens a dataset directory produced by the preprocessing pipeline.
func Open(dir string) (*Source, error) {
	ds, err := colstore.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	s := &Source{dir: dir}
	s.ds.Store(ds)
	return s, nil
}

// dataset returns the current metadata snapshot.
func (s *Source) dataset() *colstore.Dataset { return s.ds.Load() }

// Reload re-reads the dataset metadata from disk and swaps it in,
// returning it. Steps opened before the reload stay valid — they own
// their files — and concurrent queries are unaffected: the swap is atomic
// and the old snapshot remains readable by requests that already hold it.
func (s *Source) Reload() (*colstore.Dataset, error) {
	if s.closed.Load() {
		return nil, Fatalf("fastquery: source closed")
	}
	ds, err := colstore.OpenDataset(s.dir)
	if err != nil {
		return nil, err
	}
	s.ds.Store(ds)
	return ds, nil
}

// Close marks the source closed; subsequent OpenStep calls fail. Steps
// opened earlier stay valid — each Step owns its files. Close is
// idempotent.
func (s *Source) Close() error {
	s.closed.Store(true)
	return nil
}

// Steps returns the number of timesteps.
func (s *Source) Steps() int { return s.dataset().Meta.Steps }

// Variables returns the dataset's declared variables.
func (s *Source) Variables() []string {
	return append([]string(nil), s.dataset().Meta.Variables...)
}

// Dataset exposes the underlying storage handle (the current snapshot;
// a concurrent Reload may supersede it).
func (s *Source) Dataset() *colstore.Dataset { return s.dataset() }

// OpenStep opens one timestep for querying. The sidecar index file is
// opened for on-demand section loading when present — only the directory
// is read up front, and each query loads just the column indexes it
// touches, like FastBit. Without an index only the Scan backend works.
//
// A damaged index — truncated file, CRC mismatch, or a row count that
// disagrees with the data file — does not fail the step: the problem is
// logged and recorded in IndexFailures, and the step opens with the index
// disabled so scan-backend queries keep working. FastBit-backend requests
// on such a step return an "index unavailable" error naming the cause.
func (s *Source) OpenStep(t int) (*Step, error) {
	if s.closed.Load() {
		return nil, Fatalf("fastquery: source closed")
	}
	ds := s.dataset()
	if t < 0 || t >= ds.Meta.Steps {
		return nil, Fatalf("fastquery: timestep %d out of range [0,%d)", t, ds.Meta.Steps)
	}
	f, err := ds.OpenStep(t)
	if err != nil {
		return nil, err
	}
	st := &Step{t: t, file: f}
	if ds.HasIndex(t) {
		ls, err := fastbit.OpenLazy(ds.IndexPath(t))
		if err == nil && ls.N() != f.Rows() {
			ls.Close()
			err = fmt.Errorf("index covers %d rows, data has %d", ls.N(), f.Rows())
			ls = nil
		}
		if err != nil {
			log.Printf("fastquery: step %d: index unusable, falling back to scan backend: %v", t, err)
			s.recordIndexFailure(t, err)
			st.indexErr = err
		} else {
			st.index = ls
		}
	}
	return st, nil
}

// Step is one open timestep. Its query and histogram methods are safe
// for concurrent use; see the package comment.
type Step struct {
	t     int
	file  *colstore.File
	index *fastbit.LazyStep
	// indexErr remembers why the sidecar index was rejected at open time;
	// nil when no index file exists or the index is healthy.
	indexErr error
}

// Close releases the underlying files.
func (st *Step) Close() error {
	if st.index != nil {
		st.index.Close() //nolint:errcheck // read-only handle
	}
	return st.file.Close()
}

// T returns the timestep number.
func (st *Step) T() int { return st.t }

// Rows returns the record count.
func (st *Step) Rows() uint64 { return st.file.Rows() }

// HasIndex reports whether the FastBit backend is available.
func (st *Step) HasIndex() bool { return st.index != nil }

// IndexError returns why the sidecar index was rejected at open time, or
// nil when no index exists or the index is healthy.
func (st *Step) IndexError() error { return st.indexErr }

// KeepIndexRows makes rows [lo, hi) the index's resident window: from
// then on the step keeps each column's bitmaps for those rows only
// (fastbit.LazyStep.KeepRows). The first window is the one kept.
func (st *Step) KeepIndexRows(lo, hi uint64) {
	if st.index != nil {
		st.index.KeepRows(lo, hi)
	}
}

// IndexBytes returns the in-memory size of the column indexes the step
// keeps decoded.
func (st *Step) IndexBytes() int {
	if st.index == nil {
		return 0
	}
	return st.index.IndexBytes()
}

// noIndexError explains a FastBit-backend request on a step without a
// usable index. The error is fatal — every worker sees the same file — so
// the cluster layer will not waste retries on it.
func (st *Step) noIndexError() error {
	if st.indexErr != nil {
		return Fatalf("fastquery: step %d: index unavailable (%v); use the Scan backend", st.t, st.indexErr)
	}
	return fmt.Errorf("fastquery: step %d has no index; use the Scan backend", st.t)
}

// IOBytes returns cumulative bytes read from the data file (not the
// index), for the performance model.
func (st *Step) IOBytes() uint64 { return st.file.BytesRead() }

// ReadColumn reads a full column as float64.
func (st *Step) ReadColumn(name string) ([]float64, error) {
	return st.file.ReadAsFloat64(name)
}

// ReadIDs reads the identifier column.
func (st *Step) ReadIDs() ([]int64, error) {
	return st.file.ReadInt64(st.idVar())
}

// ValuesAtCtx gathers a column's values at the given sorted row
// positions, reading only the chunks that contain them, and charges the
// read to the context's per-query cost accumulator, when one is attached.
func (st *Step) ValuesAtCtx(ctx context.Context, name string, positions []uint64) ([]float64, error) {
	return st.file.ReadFloat64AtCost(name, positions, obs.CostFromContext(ctx))
}

func (st *Step) idVar() string {
	if st.index != nil && st.index.IDVar() != "" {
		return st.index.IDVar()
	}
	return "id"
}

// IDVar returns the name of the identifier column this step resolves ID
// queries against ("id" unless the index metadata names another).
func (st *Step) IDVar() string { return st.idVar() }

// IDsAtCtx gathers the identifier column's values at the given sorted row
// positions — the particle-tracking handoff: a selection's positions
// become the ID set that an `id in (...)` predicate follows across steps.
// An identifier that is not an integer within ±colstore.MaxExactInt is
// an error (colstore.ExactInt), never truncated into another particle's.
func (st *Step) IDsAtCtx(ctx context.Context, positions []uint64) ([]int64, error) {
	out := make([]int64, 0, len(positions))
	err := st.file.VisitFloat64AtCost(st.idVar(), positions, obs.CostFromContext(ctx), func(_ []uint64, values []float64) error {
		for _, v := range values {
			id, err := colstore.ExactInt(v)
			if err != nil {
				return err
			}
			out = append(out, id)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// reader adapts the colstore file to fastbit's RawReader, charging raw
// reads to the per-query cost accumulator when one is attached.
type reader struct {
	f    *colstore.File
	cost *obs.Cost
}

func (r reader) ValuesAt(name string, positions []uint64) ([]float64, error) {
	return r.f.ReadFloat64AtCost(name, positions, r.cost)
}

// VisitAt makes reader a fastbit.BatchReader: a candidate check tests
// each chunk's values while its buffer is in hand.
func (r reader) VisitAt(name string, positions []uint64, fn func(positions []uint64, values []float64) error) error {
	return r.f.VisitFloat64AtCost(name, positions, r.cost, fn)
}

// evaluator returns a fastbit evaluator for this step, wired to charge
// index loads and raw reads to ctx's cost accumulator when one is set.
func (st *Step) evaluator(ctx context.Context) (*fastbit.Evaluator, error) {
	if st.index == nil {
		return nil, st.noIndexError()
	}
	c := obs.CostFromContext(ctx)
	return st.index.CostEvaluator(reader{f: st.file, cost: c}, c), nil
}

// loadScanColumns reads rows [lo, hi) of the columns needed to
// scan-evaluate e plus any extra variables, recording the read as a
// "read-columns" span on the active trace.
func (st *Step) loadScanColumns(ctx context.Context, lo, hi uint64, e query.Expr, extra ...string) (scan.Columns, error) {
	_, sp := obs.StartSpan(ctx, "read-columns")
	defer sp.End()
	need := map[string]bool{}
	if e != nil {
		for _, v := range query.Vars(e) {
			need[v] = true
		}
	}
	for _, v := range extra {
		need[v] = true
	}
	names := make([]string, 0, len(need))
	for v := range need {
		names = append(names, v)
	}
	sort.Strings(names)
	sp.SetAttr("columns", strings.Join(names, ","))
	cost := obs.CostFromContext(ctx)
	cols := scan.Columns{}
	for _, v := range names {
		col, err := st.file.ReadAsFloat64RangeCost(v, lo, hi, cost)
		if err != nil {
			return nil, err
		}
		cols[v] = col
	}
	return cols, nil
}

// SelectCtx returns the sorted positions in rows [lo, hi) matching e; the
// whole step is [0, Rows). The work is proportional to the range: FastBit
// candidate-checks only the boundary-bin rows inside it, and Scan reads
// and scans only the chunks that overlap it. Both backends observe ctx at
// periodic checkpoints, so a canceled query stops within one checkpoint
// interval (scan.CheckpointRows rows).
func (st *Step) SelectCtx(ctx context.Context, e query.Expr, b Backend, lo, hi uint64) ([]uint64, error) {
	if lo > hi || hi > st.Rows() {
		return nil, Fatalf("fastquery: step %d: row range [%d, %d) outside [0, %d)", st.t, lo, hi, st.Rows())
	}
	switch b {
	case FastBit:
		ev, err := st.evaluator(ctx)
		if err != nil {
			return nil, err
		}
		if lo == hi {
			return nil, nil
		}
		return ev.SelectCtx(ctx, e, lo, hi)
	case Scan:
		cols, err := st.loadScanColumns(ctx, lo, hi, e)
		if err != nil {
			return nil, err
		}
		pos, err := scan.SelectCtx(ctx, cols, e)
		if err != nil {
			return nil, err
		}
		for i := range pos {
			pos[i] += lo
		}
		return pos, nil
	default:
		return nil, fmt.Errorf("fastquery: unknown backend %v", b)
	}
}

// CountCtx returns the number of records matching e over the whole step,
// with cooperative cancellation.
func (st *Step) CountCtx(ctx context.Context, e query.Expr, b Backend) (uint64, error) {
	return st.CountIn(ctx, e, b, 0, st.Rows())
}

// CountIn returns the number of rows in [lo, hi) matching e: SelectCtx's
// work, counted without listing the positions.
func (st *Step) CountIn(ctx context.Context, e query.Expr, b Backend, lo, hi uint64) (uint64, error) {
	if lo > hi || hi > st.Rows() {
		return 0, Fatalf("fastquery: step %d: row range [%d, %d) outside [0, %d)", st.t, lo, hi, st.Rows())
	}
	switch b {
	case FastBit:
		ev, err := st.evaluator(ctx)
		if err != nil || lo == hi {
			return 0, err
		}
		return ev.CountIn(ctx, e, lo, hi)
	case Scan:
		cols, err := st.loadScanColumns(ctx, lo, hi, e)
		if err != nil {
			return 0, err
		}
		return scan.CountCtx(ctx, cols, e)
	default:
		return 0, fmt.Errorf("fastquery: unknown backend %v", b)
	}
}

// SelectIDsCtx returns the identifiers of records matching e, with
// cooperative cancellation: SelectCtx over the whole step, then IDsAtCtx.
func (st *Step) SelectIDsCtx(ctx context.Context, e query.Expr, b Backend) ([]int64, error) {
	pos, err := st.SelectCtx(ctx, e, b, 0, st.Rows())
	if err != nil {
		return nil, err
	}
	return st.IDsAtCtx(ctx, pos)
}

// FindIDsCtx returns the sorted positions of records whose identifier is
// in the search set, with cooperative cancellation: the particle-tracking
// primitive (paper Section V-B).
func (st *Step) FindIDsCtx(ctx context.Context, ids []int64, b Backend) ([]uint64, error) {
	switch b {
	case FastBit:
		if st.index == nil {
			return nil, st.noIndexError()
		}
		pos, err := st.index.IDLookup(ids)
		if err != nil {
			return nil, fmt.Errorf("fastquery: step %d: %w", st.t, err)
		}
		return pos, nil
	case Scan:
		col, err := st.ReadIDs()
		if err != nil {
			return nil, err
		}
		return scan.FindIDsCtx(ctx, col, ids)
	default:
		return nil, fmt.Errorf("fastquery: unknown backend %v", b)
	}
}

// Histogram2DCtx computes a 2D histogram, with cooperative cancellation;
// cond may be nil for unconditional. FastBit is
// the paper's two-step conditional histogram (Section V-A2): the index
// selects the matching rows, then the histogram kernel (Histogram2DOver)
// gathers their values into an array of one element per hit and bins them
// into dense counts — which is why it wins
// for selective conditions and loses to a scan once the selection nears
// the whole step. Scan is the paper's Custom kernel (Figs. 11-13): one
// fused pass that tests the condition and bins each matching row.
func (st *Step) Histogram2DCtx(ctx context.Context, cond query.Expr, spec histogram.Spec2D, b Backend) (*histogram.Hist2D, error) {
	switch b {
	case FastBit:
		rows, err := st.indexed(ctx, cond)
		if err != nil {
			return nil, err
		}
		h, err := st.histogram2D(ctx, rows, spec, true)
		if err != nil {
			return nil, err
		}
		return h.Hist(), nil
	case Scan:
		cols, err := st.loadScanColumns(ctx, 0, st.Rows(), cond, spec.XVar, spec.YVar)
		if err != nil {
			return nil, err
		}
		xs, ys := cols[spec.XVar], cols[spec.YVar]
		if cond != nil {
			pos, err := scan.SelectCtx(ctx, cols, cond)
			if err != nil {
				return nil, err
			}
			xs, ys = gather(xs, pos), gather(ys, pos)
		}
		e, err := inMemory(len(xs), map[string][]float64{spec.XVar: xs, spec.YVar: ys}).edges(ctx, axes2D(spec)...)
		if err != nil {
			return nil, err
		}
		return scan.ConditionalHistogram2DCtx(ctx, cols, spec.XVar, spec.YVar, cond, e[0], e[1])
	default:
		return nil, fmt.Errorf("fastquery: unknown backend %v", b)
	}
}

// Histogram1DCtx computes a 1D histogram, with cooperative cancellation;
// cond may be nil. The backends split as in Histogram2DCtx.
func (st *Step) Histogram1DCtx(ctx context.Context, cond query.Expr, spec histogram.Spec1D, b Backend) (*histogram.Hist1D, error) {
	switch b {
	case FastBit:
		rows, err := st.indexed(ctx, cond)
		if err != nil {
			return nil, err
		}
		return st.histogram1D(ctx, rows, spec, FastBit)
	case Scan:
		cols, err := st.loadScanColumns(ctx, 0, st.Rows(), cond, spec.Var)
		if err != nil {
			return nil, err
		}
		vs := cols[spec.Var]
		if cond != nil {
			pos, err := scan.SelectCtx(ctx, cols, cond)
			if err != nil {
				return nil, err
			}
			vs = gather(vs, pos)
		}
		e, err := inMemory(len(vs), map[string][]float64{spec.Var: vs}).edges(ctx, axes1D(spec)...)
		if err != nil {
			return nil, err
		}
		return scan.Histogram1DCtx(ctx, cols, spec.Var, cond, e[0])
	default:
		return nil, fmt.Errorf("fastquery: unknown backend %v", b)
	}
}

// indexed returns the rows a FastBit histogram over cond bins: the
// index's selection over the whole step, or every row when cond is nil.
func (st *Step) indexed(ctx context.Context, cond query.Expr) (Rows, error) {
	if st.index == nil {
		return Rows{}, st.noIndexError()
	}
	if cond == nil {
		return Rows{All: true, Hi: st.Rows()}, nil
	}
	pos, err := st.SelectCtx(ctx, cond, FastBit, 0, st.Rows())
	return Rows{Pos: pos}, err
}

// gather returns vals at the sorted positions pos: the selected values
// the fused scan resolves its edges from.
func gather(vals []float64, pos []uint64) []float64 {
	out := make([]float64, len(pos))
	for i, p := range pos {
		out[i] = vals[p]
	}
	return out
}

// Histogram1DIndexOnlyCtx computes an approximate conditional 1D
// histogram entirely in index space: the condition is evaluated with
// boundary bins admitted wholesale (no candidate checks, no raw reads)
// and the histogram is binned at the index's own resolution via bitmap
// AND-counts. It requires a usable index; the result's totals are an
// upper bound on the exact answer. This is the serve layer's brownout
// path under sustained overload.
func (st *Step) Histogram1DIndexOnlyCtx(ctx context.Context, cond query.Expr, name string) (*histogram.Hist1D, error) {
	ev, err := st.evaluator(ctx)
	if err != nil {
		return nil, err
	}
	ev.Approx = true
	return ev.Histogram1DFromBitmapsCtx(ctx, cond, name)
}

// Histogram2DIndexOnlyCtx is the 2D analogue of Histogram1DIndexOnlyCtx:
// an approximate conditional 2D histogram at the two indexes' native
// resolutions, computed from bitmaps alone.
func (st *Step) Histogram2DIndexOnlyCtx(ctx context.Context, cond query.Expr, xvar, yvar string) (*histogram.Hist2D, error) {
	ev, err := st.evaluator(ctx)
	if err != nil {
		return nil, err
	}
	ev.Approx = true
	return ev.Histogram2DFromBitmapsCtx(ctx, cond, xvar, yvar)
}

// MinMax returns the value range of a column, preferring the index's
// metadata (free) over a min/max visit of the column's chunks, which
// holds no column and, like the metadata, charges no cost: it describes
// the step, not a request's work.
func (st *Step) MinMax(ctx context.Context, name string) (lo, hi float64, err error) {
	if st.index != nil && st.index.HasColumn(name) {
		ix, err := st.index.ColumnRows(name, 0, 0, nil) // bounds only
		if err != nil {
			return math.NaN(), math.NaN(), err
		}
		return ix.Min(), ix.Max(), nil
	}
	c := &columns{file: st.file, hi: st.Rows(), n: st.Rows()}
	los, his, err := c.minMax(ctx, []string{name})
	if err != nil {
		return math.NaN(), math.NaN(), err
	}
	return los[0], his[0], nil
}
