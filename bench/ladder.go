package main

// The layer ladder (source L). It takes the workload's first requests and
// calls each layer's public function on their inputs, from the planner down
// to the column reads, recording a span around every call. Child spans exist
// only where a layer lets one be injected from outside (plan.Runner,
// fastbit.RawReader); where a layer takes no interface the ladder calls the
// next rung directly on the same inputs. Every recomputation is compared
// with the answer the server gave for the same request.
//
// This is the one file of the harness that reaches into repro/internal.

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"repro/internal/bitmap"
	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/scan"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/shard"
)

// ladderN bounds the requests the ladder climbs: each is recomputed about
// six times over, so it gets fewer than the replays.
const ladderN = 40

// rung names, also the span names in trace.json.
const (
	spRequest   = "request"
	spParse     = "query.parse_canon"
	spPlan      = "plan.execute"
	spShardEval = "shard.eval"
	spFQHist2D  = "fastquery.hist2d"
	spFQHist1D  = "fastquery.hist1d"
	spFQCount   = "fastquery.count"
	spEval      = "fastbit.eval"
	spCheck     = "colstore.gather.check" // candidate-check reads inside fastbit.eval
	spPositions = "bitmap.positions"
	spCount     = "bitmap.count"
	spGather    = "colstore.gather"
	spReadCol   = "colstore.read_col"
	spRange     = "histogram.range"
	spHist2D    = "histogram.compute2d"
	spHist1D    = "histogram.compute1d"
	spScanSel   = "scan.select"
	spScanHist  = "scan.cond_hist2d"
	spOrAll     = "bitmap.orall"
	spAnd       = "bitmap.and"
)

// stepHandles are one timestep opened at every level the ladder calls into.
type stepHandles struct {
	st   *fastquery.Step
	file *colstore.File
	lazy *fastbit.LazyStep
}

// ladder is the state of one climb.
type ladder struct {
	r     *run
	tr    *tracer
	ds    *colstore.Dataset
	src   *fastquery.Source
	steps map[int]*stepHandles
	frags []plan.Fragment // fragments the planner cut, for the RPC rung

	boundary     []float64 // fastbit boundary bins per evaluated request
	attributed   time.Duration
	fastqueryDur time.Duration
	mismatches   []string
}

func (l *ladder) close() {
	for _, h := range l.steps {
		h.st.Close()   //nolint:errcheck // read-only handles
		h.file.Close() //nolint:errcheck
		if h.lazy != nil {
			h.lazy.Close() //nolint:errcheck
		}
	}
	l.src.Close() //nolint:errcheck
}

// step opens timestep t once.
func (l *ladder) step(t int) (*stepHandles, error) {
	if h, ok := l.steps[t]; ok {
		return h, nil
	}
	st, err := l.src.OpenStep(t)
	if err != nil {
		return nil, err
	}
	file, err := l.ds.OpenStep(t)
	if err != nil {
		return nil, err
	}
	h := &stepHandles{st: st, file: file}
	if l.ds.HasIndex(t) {
		if h.lazy, err = fastbit.OpenLazy(l.ds.IndexPath(t)); err != nil {
			return nil, err
		}
	}
	l.steps[t] = h
	return h, nil
}

// tracedRunner is the plan.Runner the ladder injects: the in-process
// evaluation every local server performs, with a span around it.
type tracedRunner struct {
	l      *ladder
	req    int
	parent int
}

func (tr tracedRunner) RunFragment(ctx context.Context, _ int, f plan.Fragment) (*plan.FragmentResult, error) {
	h, err := tr.l.step(f.Step)
	if err != nil {
		return nil, err
	}
	if len(tr.l.frags) < ladderN {
		tr.l.frags = append(tr.l.frags, f)
	}
	sp := tr.l.tr.begin(tr.req, spShardEval, tr.parent)
	res, err := shard.Eval(ctx, h.st, f)
	tr.l.tr.end(sp, 0)
	return res, err
}

// tracedReader is the fastbit.RawReader the ladder injects: colstore reads
// with a span around each, children of the evaluation that asked for them.
type tracedReader struct {
	l      *ladder
	file   *colstore.File
	req    int
	parent int
}

func (r tracedReader) ValuesAt(name string, positions []uint64) ([]float64, error) {
	sp := r.l.tr.begin(r.req, spCheck, r.parent)
	vs, err := r.file.ReadFloat64At(name, positions)
	r.l.tr.end(sp, float64(len(positions)))
	return vs, err
}

func (r tracedReader) Column(name string) ([]float64, error) {
	sp := r.l.tr.begin(r.req, spReadCol, r.parent)
	vs, err := r.file.ReadAsFloat64(name)
	r.l.tr.end(sp, float64(8*len(vs)))
	return vs, err
}

// timed runs fn inside a span and returns the span's index.
func (l *ladder) timed(req int, name string, parent int, fn func() (float64, error)) (int, error) {
	sp := l.tr.begin(req, name, parent)
	n, err := fn()
	l.tr.end(sp, n)
	return sp, err
}

// answerOf is what the ladder compares: a count, or histogram cells.
type answerOf struct {
	Count  uint64
	Counts []uint64
}

// serverAnswer extracts the comparable part of a server's JSON answer.
func serverAnswer(body []byte) (answerOf, error) {
	var b struct {
		Matches *uint64  `json:"matches"`
		Counts  []uint64 `json:"counts"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return answerOf{}, err
	}
	if b.Matches != nil {
		return answerOf{Count: *b.Matches}, nil
	}
	return answerOf{Counts: b.Counts}, nil
}

func backendOf(q request, h *stepHandles) fastquery.Backend {
	if q.Backend == "scan" || !h.st.HasIndex() {
		return fastquery.Scan
	}
	return fastquery.FastBit
}

func spec2Of(q request) histogram.Spec2D {
	s := histogram.NewSpec2D(q.X, q.Y, q.XBins, q.YBins)
	s.XLo, s.XHi, s.YLo, s.YHi = q.XLo, q.XHi, q.YLo, q.YHi
	return s
}

func spec1Of(q request) histogram.Spec1D {
	s := histogram.NewSpec1D(q.X, q.XBins)
	s.Lo, s.Hi = nan, nan
	return s
}

// climb pushes one request through every rung.
func (l *ladder) climb(i int, q request, served []byte) error {
	ctx := context.Background()
	if q.Step < 0 {
		q.Step = l.r.w.Steps - 1 // the newest step of the replayed, quiet dataset
	}
	h, err := l.step(q.Step)
	if err != nil {
		return err
	}
	backend := backendOf(q, h)
	root := l.tr.begin(i, spRequest, -1)
	defer func() { l.tr.end(root, 0) }()

	// query: text to canonical plan.
	var expr query.Expr
	canon := ""
	if q.Cond != "" {
		if _, err := l.timed(i, spParse, root, func() (float64, error) {
			e, err := query.Parse(q.Cond)
			if err != nil {
				return 0, err
			}
			expr = query.Canonical(e)
			canon = expr.String()
			return float64(len(q.Cond)), nil
		}); err != nil {
			return err
		}
	}

	// plan -> shard: the planner with the ladder's runner.
	pq := plan.Query{Dataset: datasetName, Step: q.Step, Query: canon, Backend: backend}
	switch q.Op {
	case "query":
		pq.Op = plan.OpCount
	case "hist1d":
		pq.Op, pq.Spec1 = plan.OpHist1D, spec1Of(q)
	default:
		pq.Op, pq.Spec2 = plan.OpHist2D, spec2Of(q)
	}
	planSp := l.tr.begin(i, spPlan, root)
	res, err := plan.Execute(ctx, pq, plan.ShardMap{Shards: 1}, h.st.Rows(),
		tracedRunner{l: l, req: i, parent: planSp}, plan.FailFast)
	l.tr.end(planSp, 0)
	if err != nil {
		return err
	}
	got := answerOf{Count: res.Count}
	if res.Hist1 != nil {
		got = answerOf{Counts: res.Hist1.Counts}
	} else if res.Hist2 != nil {
		got = answerOf{Counts: res.Hist2.Counts}
	}
	if served != nil {
		want, err := serverAnswer(served)
		if err != nil || !reflect.DeepEqual(got, want) {
			l.mismatches = append(l.mismatches, fmt.Sprintf("ladder and server disagree on %s (err %v)", q.URL(), err))
		}
	}

	// fastquery: the veneer the shard kernel calls.
	var fq int
	switch q.Op {
	case "query":
		fq, err = l.timed(i, spFQCount, root, func() (float64, error) {
			_, err := h.st.CountCtx(ctx, expr, backend)
			return 0, err
		})
	case "hist1d":
		fq, err = l.timed(i, spFQHist1D, root, func() (float64, error) {
			_, err := h.st.Histogram1DCtx(ctx, expr, spec1Of(q), backend)
			return 0, err
		})
	default:
		fq, err = l.timed(i, spFQHist2D, root, func() (float64, error) {
			_, err := h.st.Histogram2DCtx(ctx, expr, spec2Of(q), backend)
			return 0, err
		})
	}
	if err != nil {
		return err
	}

	// The rungs below fastquery, called one after another on the same
	// inputs; together they must account for the fastquery call.
	before := len(l.tr.spans)
	switch {
	case backend == fastquery.Scan:
		err = l.scanRungs(i, root, q, h, expr)
	case expr == nil:
		err = l.fullRungs(i, root, q, h)
	default:
		err = l.indexRungs(i, root, q, h, expr)
	}
	if err != nil {
		return err
	}
	if q.Op != "hist1d" {
		l.fastqueryDur += l.tr.spans[fq].dur()
		for j := before; j < len(l.tr.spans); j++ {
			if l.tr.spans[j].Parent == root {
				l.attributed += l.tr.spans[j].dur()
			}
		}
	}
	return nil
}

// indexRungs is the index-assisted path: evaluate, list positions, gather,
// find the range, bin.
func (l *ladder) indexRungs(i, root int, q request, h *stepHandles, expr query.Expr) error {
	ctx := context.Background()
	var hits *bitmap.Vector
	evalSp := l.tr.begin(i, spEval, root)
	ev := h.lazy.Evaluator(tracedReader{l: l, file: h.file, req: i, parent: evalSp})
	hits, err := ev.EvalCtx(ctx, expr)
	l.tr.end(evalSp, float64(ev.Stats.CandidateChecks))
	if err != nil {
		return err
	}
	l.boundary = append(l.boundary, float64(ev.Stats.BoundaryBins))
	if err := l.bitmapRungs(i, h, expr); err != nil {
		return err
	}
	if q.Op == "query" {
		_, err := l.timed(i, spCount, root, func() (float64, error) {
			hits.Count()
			return float64(hits.Words()), nil
		})
		return err
	}
	var pos []uint64
	if _, err := l.timed(i, spPositions, root, func() (float64, error) {
		pos = hits.Positions()
		return float64(len(pos)), nil
	}); err != nil {
		return err
	}
	gather := func(name string) (vs []float64, err error) {
		_, err = l.timed(i, spGather, root, func() (float64, error) {
			vs, err = h.file.ReadFloat64At(name, pos)
			return float64(len(pos)), err
		})
		return vs, err
	}
	xs, err := gather(q.X)
	if err != nil {
		return err
	}
	if q.Op == "hist1d" {
		return l.bin1D(i, root, q, xs)
	}
	ys, err := gather(q.Y)
	if err != nil {
		return err
	}
	return l.bin2D(i, root, q, xs, ys, false, h)
}

// fullRungs is the unconditional path: read both columns, bin.
func (l *ladder) fullRungs(i, root int, q request, h *stepHandles) error {
	read := func(name string) (vs []float64, err error) {
		_, err = l.timed(i, spReadCol, root, func() (float64, error) {
			vs, err = h.file.ReadFloat64(name)
			return float64(8 * len(vs)), err
		})
		return vs, err
	}
	xs, err := read(q.X)
	if err != nil {
		return err
	}
	if q.Op == "hist1d" {
		return l.bin1D(i, root, q, xs)
	}
	ys, err := read(q.Y)
	if err != nil {
		return err
	}
	return l.bin2D(i, root, q, xs, ys, true, h)
}

// bin2D finds the binning range the way the fastbit path does (explicit,
// else index metadata for a full column, else a pass over the values) and
// bins the pairs.
func (l *ladder) bin2D(i, root int, q request, xs, ys []float64, full bool, h *stepHandles) error {
	xlo, xhi, ylo, yhi := q.XLo, q.XHi, q.YLo, q.YHi
	if _, err := l.timed(i, spRange, root, func() (float64, error) {
		derive := func(name string, vs []float64) (float64, float64, error) {
			if full && h.lazy != nil {
				ix, err := h.lazy.Column(name)
				if err != nil {
					return 0, 0, err
				}
				return ix.Min(), ix.Max(), nil
			}
			lo, hi := scan.MinMax(vs)
			return lo, hi, nil
		}
		var err error
		if math.IsNaN(xlo) {
			if xlo, xhi, err = derive(q.X, xs); err != nil {
				return 0, err
			}
		}
		if math.IsNaN(ylo) {
			if ylo, yhi, err = derive(q.Y, ys); err != nil {
				return 0, err
			}
		}
		return float64(len(xs)), nil
	}); err != nil {
		return err
	}
	_, err := l.timed(i, spHist2D, root, func() (float64, error) {
		_, err := histogram.Compute2D(q.X, q.Y, xs, ys,
			histogram.UniformEdges(xlo, xhi, q.XBins), histogram.UniformEdges(ylo, yhi, q.YBins))
		return float64(len(xs)), err
	})
	return err
}

func (l *ladder) bin1D(i, root int, q request, xs []float64) error {
	var lo, hi float64
	if _, err := l.timed(i, spRange, root, func() (float64, error) {
		lo, hi = scan.MinMax(xs)
		return float64(len(xs)), nil
	}); err != nil {
		return err
	}
	_, err := l.timed(i, spHist1D, root, func() (float64, error) {
		_, err := histogram.Compute1D(q.X, xs, histogram.UniformEdges(lo, hi, q.XBins))
		return float64(len(xs)), err
	})
	return err
}

// scanRungs is the sequential-scan path: read the columns, select (for the
// data-derived range), then the conditional histogram pass.
func (l *ladder) scanRungs(i, root int, q request, h *stepHandles, expr query.Expr) error {
	ctx := context.Background()
	need := map[string]bool{}
	if expr != nil {
		for _, v := range query.Vars(expr) {
			need[v] = true
		}
	}
	if q.Op != "query" {
		need[q.X] = true
		if q.Op != "hist1d" {
			need[q.Y] = true
		}
	}
	names := make([]string, 0, len(need))
	for v := range need {
		names = append(names, v)
	}
	sort.Strings(names)
	cols := scan.Columns{}
	for _, v := range names {
		if _, err := l.timed(i, spReadCol, root, func() (float64, error) {
			c, err := h.file.ReadAsFloat64(v)
			cols[v] = c
			return float64(8 * len(c)), err
		}); err != nil {
			return err
		}
	}
	rows := float64(h.st.Rows())
	var pos []uint64
	if expr != nil {
		if _, err := l.timed(i, spScanSel, root, func() (float64, error) {
			var err error
			pos, err = scan.SelectCtx(ctx, cols, expr)
			return rows, err
		}); err != nil {
			return err
		}
	}
	if q.Op != "hist2d" {
		return nil
	}
	xs, ys := make([]float64, len(pos)), make([]float64, len(pos))
	var xe, ye []float64
	if _, err := l.timed(i, spRange, root, func() (float64, error) {
		for k, p := range pos {
			xs[k], ys[k] = cols[q.X][p], cols[q.Y][p]
		}
		xlo, xhi := scan.MinMax(xs)
		ylo, yhi := scan.MinMax(ys)
		xe, ye = histogram.UniformEdges(xlo, xhi, q.XBins), histogram.UniformEdges(ylo, yhi, q.YBins)
		return float64(len(pos)), nil
	}); err != nil {
		return err
	}
	_, err := l.timed(i, spScanHist, root, func() (float64, error) {
		_, err := scan.ConditionalHistogram2DCtx(ctx, cols, q.X, q.Y, expr, xe, ye)
		return rows, err
	})
	return err
}

// bitmapRungs times the bitmap kernels on the very bin vectors the request's
// condition touches: the OR of the bins inside each variable's interval and
// the AND of two such results. The spans are roots of their own (they repeat
// work fastbit.eval already did) and count per 32-bit word of input.
func (l *ladder) bitmapRungs(i int, h *stepHandles, expr query.Expr) error {
	ranges, ok := query.RangeSet(expr)
	if !ok {
		return nil
	}
	vars := make([]string, 0, len(ranges))
	for v := range ranges {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var parts []*bitmap.Vector
	for _, v := range vars {
		ix, err := h.lazy.Column(v)
		if err != nil {
			return err
		}
		iv := ranges[v]
		var in []*bitmap.Vector
		words := 0
		for b := 0; b < ix.Bins(); b++ {
			if ix.Bounds[b] >= iv.Lo && ix.Bounds[b+1] <= iv.Hi {
				in = append(in, ix.Bitmaps[b])
				words += ix.Bitmaps[b].Words()
			}
		}
		if len(in) < 2 {
			continue
		}
		var or *bitmap.Vector
		l.timed(i, spOrAll, -1, func() (float64, error) { //nolint:errcheck // fn cannot fail
			or = bitmap.OrAll(in)
			return float64(words), nil
		})
		parts = append(parts, or)
	}
	if len(parts) >= 2 {
		l.timed(i, spAnd, -1, func() (float64, error) { //nolint:errcheck // fn cannot fail
			parts[0].And(parts[1])
			return float64(parts[0].Words() + parts[1].Words()), nil
		})
	}
	return nil
}

// ladderInputs returns the requests the ladder climbs and, where the replay
// kept it, the server's answer to each.
func ladderInputs(r *run, plain *windowResult) ([]request, [][]byte) {
	var reqs []request
	var served [][]byte
	if r.w.Name == "session_track" {
		// The chains' predicates as counts: the brush, then the folded
		// selection after all four refinements.
		g := newChainGen(r.seed, r.prof, r.w.Steps)
		for i := 0; i < clients; i++ {
			g.next() // the warm-up's chains
		}
		for i := 0; i < r.replayN(); i++ {
			c := g.next()
			for _, cond := range []string{c.Brush, c.Folded()} {
				reqs = append(reqs, request{Kind: kindSelect, Op: "query", Step: c.Step, Cond: cond,
					XLo: nan, XHi: nan, YLo: nan, YHi: nan})
				served = append(served, nil)
			}
		}
		return reqs, served
	}
	for _, k := range plain.Kept {
		if len(reqs) == ladderN {
			break
		}
		if k.Call.Req == nil {
			continue
		}
		reqs = append(reqs, *k.Call.Req)
		body := k.Body
		if k.Call.Req.Step < 0 {
			body = nil // the replay answered for its own newest step
		}
		served = append(served, body)
	}
	return reqs, served
}

// runLadder climbs the ladder for the workload's first requests, then runs
// the rungs that need no request, and folds the spans into metrics.
func runLadder(r *run, tr *tracer, plain *windowResult) (map[string]float64, error) {
	dir := r.p.d12()
	ds, err := colstore.OpenDataset(dir)
	if err != nil {
		return nil, err
	}
	src, err := fastquery.Open(dir)
	if err != nil {
		return nil, err
	}
	l := &ladder{r: r, tr: tr, ds: ds, src: src, steps: map[int]*stepHandles{}}
	defer l.close()

	reqs, served := ladderInputs(r, plain)
	// A first, unrecorded climb pays the lazy index loads, as warm-up does
	// for the servers.
	warm := &ladder{r: r, tr: newTracer(), ds: ds, src: src, steps: l.steps}
	for i, q := range reqs {
		if err := warm.climb(i, q, nil); err != nil {
			return nil, err
		}
	}
	for i, q := range reqs {
		if err := l.climb(i, q, served[i]); err != nil {
			return nil, err
		}
	}
	if len(l.mismatches) > 0 {
		return nil, fmt.Errorf("%s (and %d more)", l.mismatches[0], len(l.mismatches)-1)
	}

	out := map[string]float64{
		"query.parse_canon_us": tr.medianUS(spParse),
		"plan.execute_us":      tr.medianUS(spPlan),
		"shard.eval_us":        tr.medianUS(spShardEval),
		"fastquery.hist2d_us":  tr.medianUS(spFQHist2D),
		"fastquery.count_us":   tr.medianUS(spFQCount),
		"colstore.gather_us":   tr.medianUS(spGather),
		"colstore.read_col_us": tr.medianUS(spReadCol),
		// bytes per ns is GB/s; the metric is MB/s.
		"colstore.read_mb_per_s":           1000 * ratio(1, tr.perUnitNS(spReadCol)),
		"bitmap.positions_ns_per_hit":      tr.perUnitNS(spPositions),
		"bitmap.count_ns_per_word":         tr.perUnitNS(spCount),
		"bitmap.orall_ns_per_word":         tr.perUnitNS(spOrAll),
		"bitmap.and_ns_per_word":           tr.perUnitNS(spAnd),
		"histogram.compute2d_ns_per_value": tr.perUnitNS(spHist2D),
		"histogram.compute1d_ns_per_value": tr.perUnitNS(spHist1D),
		"scan.select_ns_per_row":           tr.perUnitNS(spScanSel),
		"scan.cond_hist2d_ns_per_row":      tr.perUnitNS(spScanHist),
		"fastbit.boundary_bins_per_op":     mean(l.boundary),
	}
	var planSelf, evalSelf []float64
	for _, i := range tr.named(spPlan) {
		planSelf = append(planSelf, us(tr.self(i)))
	}
	for _, i := range tr.named(spEval) {
		evalSelf = append(evalSelf, us(tr.self(i)))
	}
	out["plan.self_us"] = median(planSelf)
	out["fastbit.eval_self_us"] = median(evalSelf)
	if l.fastqueryDur > 0 {
		out["fastquery.unattributed_frac"] = 1 - float64(l.attributed)/float64(l.fastqueryDur)
	}
	if err := l.fixedRungs(out); err != nil {
		return nil, err
	}
	return out, nil
}

// medianOf runs fn n times and returns the median duration.
func medianOf(n int, fn func() error) (time.Duration, error) {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d)), nil
}

// fixedRungs measures the layers no request of the stream reaches on its
// own: opens and loads, builds and writes, merges, the RPC wire and the
// serve hit path. Inputs are fixed steps of D12 so the numbers compare
// across workloads.
func (l *ladder) fixedRungs(out map[string]float64) error {
	ctx := context.Background()
	dir := l.r.p.d12()
	const step = 5

	// fastquery.open_step_ms, fastbit.index_load_us: cold handles.
	d, err := medianOf(5, func() error {
		src, err := fastquery.Open(dir)
		if err != nil {
			return err
		}
		defer src.Close()
		st, err := src.OpenStep(step)
		if err != nil {
			return err
		}
		return st.Close()
	})
	if err != nil {
		return err
	}
	out["fastquery.open_step_ms"] = ms(d)
	if d, err = medianOf(5, func() error {
		ls, err := fastbit.OpenLazy(l.ds.IndexPath(step))
		if err != nil {
			return err
		}
		defer ls.Close()
		_, err = ls.Column("px")
		return err
	}); err != nil {
		return err
	}
	out["fastbit.index_load_us"] = us(d)

	// fastbit.id_lookup_us: 1000 ids, the on-disk search of a cold handle.
	cols, ids, err := readStep(l.ds, step)
	if err != nil {
		return err
	}
	set := make([]int64, 1000)
	for i := range set {
		set[i] = ids[i*len(ids)/len(set)]
	}
	if d, err = medianOf(5, func() error {
		ls, err := fastbit.OpenLazy(l.ds.IndexPath(step))
		if err != nil {
			return err
		}
		defer ls.Close()
		pos, err := ls.IDLookup(set)
		if err == nil && len(pos) != len(set) {
			err = fmt.Errorf("id lookup found %d of %d ids", len(pos), len(set))
		}
		return err
	}); err != nil {
		return err
	}
	out["fastbit.id_lookup_us"] = us(d)

	// fastbit.build_ms_per_mrow: one scattered and one clustered column.
	mrows := float64(len(ids)) / 1e6
	t0 := time.Now()
	var built []*fastbit.Index
	for _, v := range []string{"y", "px"} {
		ix, err := fastbit.BuildIndex(v, cols[v], fastbit.IndexOptions{Bins: d12Bins})
		if err != nil {
			return err
		}
		built = append(built, ix)
	}
	out["fastbit.build_ms_per_mrow"] = ms(time.Since(t0)) / (2 * mrows)

	// session.combine_us: the refinement algebra on two real selections.
	a, b := bitmap.OrAll(built[0].Bitmaps[:d12Bins/2]), bitmap.OrAll(built[1].Bitmaps[:8])
	if d, err = medianOf(9, func() error {
		_, err := session.Combine(a, b, "and")
		return err
	}); err != nil {
		return err
	}
	out["session.combine_us"] = us(d)

	// histogram.merge2d_us: three 256x256 partials, as a 3-shard merge.
	edges := histogram.UniformEdges(0, 1, 256)
	part := &histogram.Hist2D{XVar: "x", YVar: "y", XEdges: edges, YEdges: edges, Counts: make([]uint64, 256*256)}
	if d, err = medianOf(9, func() error {
		merged := &histogram.Hist2D{XVar: "x", YVar: "y", XEdges: edges, YEdges: edges,
			Counts: append([]uint64(nil), part.Counts...)}
		if err := merged.Merge(part); err != nil {
			return err
		}
		return merged.Merge(part)
	}); err != nil {
		return err
	}
	out["histogram.merge2d_us"] = us(d)

	if err := l.writeRungs(out, cols, ids); err != nil {
		return err
	}
	if err := l.rpcRungs(ctx, out); err != nil {
		return err
	}
	return l.hitRung(out)
}

// writeRungs measures the write side in a scratch directory: a colstore
// step file, and the ingest writer, catalog and index builder on one
// liveRows-row step.
func (l *ladder) writeRungs(out map[string]float64, cols map[string][]float64, ids []int64) error {
	tmp := filepath.Join(l.r.p.Scratch, "ladder")
	os.RemoveAll(tmp) //nolint:errcheck // may not exist
	defer os.RemoveAll(tmp)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	vars := l.ds.Meta.Variables
	writeStep := func(path string, n int) error {
		w, err := colstore.NewWriter(path, uint64(n), 0)
		if err != nil {
			return err
		}
		for _, v := range vars {
			if v == "id" {
				err = w.AddInt64(v, ids[:n])
			} else {
				err = w.AddFloat64(v, cols[v][:n])
			}
			if err != nil {
				w.Discard()
				return err
			}
		}
		return w.Close()
	}
	t0 := time.Now()
	if err := writeStep(filepath.Join(tmp, "step.col"), len(ids)); err != nil {
		return err
	}
	out["colstore.write_ms_per_mrow"] = ms(time.Since(t0)) / (float64(len(ids)) / 1e6)

	cat, err := ingest.Create(filepath.Join(tmp, "live"), datasetName, vars, "id")
	if err != nil {
		return err
	}
	var in []ingest.Column
	for _, v := range vars {
		if v == "id" {
			in = append(in, ingest.Column{Name: v, Int: ids[:liveRows]})
		} else {
			in = append(in, ingest.Column{Name: v, Float: cols[v][:liveRows]})
		}
	}
	t0 = time.Now()
	if _, _, err := ingest.NewWriter(cat, 0).AppendStep(in); err != nil {
		return err
	}
	out["ingest.append_ms"] = ms(time.Since(t0))
	builder := ingest.NewBuilder(cat, ingest.BuilderConfig{Index: fastbit.IndexOptions{Bins: d12Bins}})
	t0 = time.Now()
	if _, err := builder.BuildStep(0); err != nil {
		return err
	}
	out["ingest.build_ms"] = ms(time.Since(t0))

	// ingest.commit_ms: the catalog commit alone, for a step file already
	// on disk (the checksum is what the writer would have recorded).
	path := cat.StepPath(cat.NextStep())
	if err := writeStep(path, liveRows); err != nil {
		return err
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	entry := ingest.StepEntry{Step: cat.NextStep(), Rows: liveRows,
		DataBytes: int64(len(buf)), DataCRC: crc32.ChecksumIEEE(buf)}
	t0 = time.Now()
	if _, err := cat.Commit(entry); err != nil {
		return err
	}
	out["ingest.commit_ms"] = ms(time.Since(t0))
	return nil
}

// rpcRungs measures the shard wire: a stats round trip (cluster.rtt_us) and
// the planner's own fragments sent over loopback to an in-process shard
// worker, against the evaluation time that worker reports.
func (l *ladder) rpcRungs(ctx context.Context, out map[string]float64) error {
	groups, shutdown, err := shard.StartLocalShards(1, map[string]string{datasetName: l.r.p.d12()}, 0)
	if err != nil {
		return err
	}
	defer shutdown()
	c, err := shard.DialShards(groups, cluster.DefaultPoolConfig(), 0)
	if err != nil {
		return err
	}
	defer c.Close()
	d, err := medianOf(21, func() error {
		if st := c.Stats(ctx, time.Second); len(st) != 1 || st[0].Err != "" {
			return fmt.Errorf("shard stats: %+v", st)
		}
		return nil
	})
	if err != nil {
		return err
	}
	out["cluster.rtt_us"] = us(d)

	var overhead, replyBytes []float64
	for pass := 0; pass < 2; pass++ { // the first pass pays the worker's lazy loads
		overhead, replyBytes = nil, nil
		for _, f := range l.frags {
			prof := plan.NewProfile()
			t0 := time.Now()
			res, err := c.RunFragment(plan.WithProfile(ctx, prof), 0, f)
			total := time.Since(t0)
			if err != nil {
				return err
			}
			fp := prof.Fragments()
			if len(fp) != 1 {
				return fmt.Errorf("rpc rung: %d fragment profiles, want 1", len(fp))
			}
			overhead = append(overhead, us(total)-1000*fp[0].EvalMS)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(shard.ExecReply{Result: res}); err != nil {
				return err
			}
			replyBytes = append(replyBytes, float64(buf.Len()))
		}
	}
	out["shard.rpc_overhead_us"] = median(overhead)
	out["shard.reply_bytes_per_frag"] = mean(replyBytes)
	return nil
}

// hitRung measures the serve layer's cache-hit path in-process: the handler
// via ServeHTTP on a key asked once before.
func (l *ladder) hitRung(out map[string]float64) error {
	s := serve.New(serve.Config{Logger: obs.NewLogger(io.Discard, "bench")})
	defer s.Close()
	if err := s.AddDataset(datasetName, l.r.p.d12()); err != nil {
		return err
	}
	keys := newHotSet(l.r.seed, l.r.prof, d12Steps).Keys
	ask := func(q request) (int, error) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.URL(), nil))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("serve hit rung: %s: status %d", q.URL(), rec.Code)
		}
		return rec.Body.Len(), nil
	}
	var hits []float64
	for _, q := range keys[:16] {
		if _, err := ask(q); err != nil {
			return err
		}
		d, err := medianOf(5, func() error {
			_, err := ask(q)
			return err
		})
		if err != nil {
			return err
		}
		hits = append(hits, us(d))
	}
	out["serve.hit_us"] = median(hits)
	return nil
}
