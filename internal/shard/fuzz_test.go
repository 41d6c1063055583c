package shard_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/shard"
)

// planPalette is what fuzzed column values and constants are drawn from:
// few distinct values, so bins hold several and comparisons tie, signed
// zeros, and extremes. Query constants, ranges and the indexed columns a
// and b take the finite entries; the scan-only column c also takes NaN
// and ±Inf, which an index cannot hold.
var planPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, -3, 7, 1e300, -1e300, 5e-324,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

const planFinite = 10 // planPalette[:planFinite] are finite

// planBytes hands out the fuzz input a byte at a time, zeros once spent.
type planBytes struct {
	b []byte
	i int
}

func (p *planBytes) next() int {
	if p.i >= len(p.b) {
		return 0
	}
	p.i++
	return int(p.b[p.i-1])
}

func (p *planBytes) finite() float64 { return planPalette[p.next()%planFinite] }

// planColumns draws rows values for each of the columns a, b and c.
func planColumns(in *planBytes, rows uint64) map[string][]float64 {
	cols := map[string][]float64{}
	for r := uint64(0); r < rows; r++ {
		for _, name := range []string{"a", "b", "c"} {
			n := planFinite
			if name == "c" {
				n = len(planPalette)
			}
			cols[name] = append(cols[name], planPalette[in.next()%n])
		}
	}
	return cols
}

// planIDs is the id column: row r holds 3r+1, or with period > 0
// 3(r mod period)+1, so that rows period apart share an id and an IN list
// over id selects several rows per value.
func planIDs(rows uint64, period int) []int64 {
	ids := make([]int64, rows)
	for r := range ids {
		if period > 0 {
			ids[r] = int64(3*(r%period) + 1)
		} else {
			ids[r] = int64(3*r + 1)
		}
	}
	return ids
}

// planDataset writes a one-step dataset of the columns cols and the id
// column ids in chunks of chunkRows, with a and b indexed into bins bins.
// A zero-row step has no index (there is nothing to bin).
func planDataset(t *testing.T, cols map[string][]float64, ids []int64, chunkRows, bins int) string {
	t.Helper()
	rows := uint64(len(ids))
	dir := t.TempDir()
	ds, err := colstore.CreateDataset(dir, colstore.DatasetMeta{
		Name: "fuzz", Steps: 1, Variables: []string{"a", "b", "c", "id"}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := colstore.NewWriter(ds.StepPath(0), rows, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := w.AddFloat64(name, cols[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddInt64("id", ids); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if rows > 0 {
		if _, err := fastquery.BuildStepIndex(ds.StepPath(0), ds.IndexPath(0), []string{"a", "b"}, "id",
			fastbit.IndexOptions{Bins: bins}); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// planExpr builds a random condition over a, b, c and id: comparisons
// with every operator, IN lists (the only predicate the ID index serves),
// and &&, || and ! nodes.
func planExpr(in *planBytes, depth int) query.Expr {
	vars := []string{"a", "b", "c", "id"}
	k := in.next()
	if depth <= 0 {
		k %= 3
	}
	switch k % 6 {
	case 0, 1:
		return &query.Compare{Var: vars[in.next()%(len(vars)-1)], Op: query.Op(in.next() % 6), Value: in.finite()}
	case 2:
		name := vars[in.next()%len(vars)]
		vs := make([]float64, 1+in.next()%3)
		for i := range vs {
			if name == "id" {
				vs[i] = float64(in.next() % 64)
			} else {
				vs[i] = in.finite()
			}
		}
		return query.NewIn(name, vs)
	case 3:
		return &query.Not{Term: planExpr(in, depth-1)}
	case 4:
		return &query.And{Terms: []query.Expr{planExpr(in, depth-1), planExpr(in, depth-1)}}
	default:
		return &query.Or{Terms: []query.Expr{planExpr(in, depth-1), planExpr(in, depth-1)}}
	}
}

// planDensity is what an adaptive histogram's density floor is drawn
// from: none, floors a few values per unit width meet or miss, and one no
// bin meets.
var planDensity = []float64{0, 0.5, 3, 1e300}

// planRange returns an explicit [lo, hi] from the finite palette, or the
// unset (NaN, NaN) range when its first byte is even.
func planRange(in *planBytes) (lo, hi float64) {
	if in.next()%2 == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = in.finite(), in.finite()
	return min(lo, hi), max(lo, hi)
}

// planQuery builds one operation: count, select, hist1d or hist2d over
// a, b or c, conditional or not, uniform or adaptive, ranged or not —
// every kind a fleet scatters in phases (min/max for an axis without a
// range, a fine histogram for an adaptive one).
func planQuery(in *planBytes) plan.Query {
	vars := []string{"a", "b", "c"}
	q := plan.Query{Op: plan.Op(in.next() % 4), Dataset: "fuzz"}
	if in.next()%2 == 1 {
		q.Query = query.Canonical(planExpr(in, 2)).String()
	}
	binning := histogram.Binning(in.next() % 2)
	switch q.Op {
	case plan.OpHist1D:
		q.Spec1 = histogram.NewSpec1D(vars[in.next()%3], 1+in.next()%8)
		q.Spec1.Binning = binning
		q.Spec1.Lo, q.Spec1.Hi = planRange(in)
	case plan.OpHist2D:
		q.Spec2 = histogram.NewSpec2D(vars[in.next()%3], vars[in.next()%3], 1+in.next()%8, 1+in.next()%8)
		q.Spec2.Binning = binning
		q.Spec2.XLo, q.Spec2.XHi = planRange(in)
		q.Spec2.YLo, q.Spec2.YHi = planRange(in)
	}
	return q
}

// planAnswer renders a result's answer as the client sees it: its JSON,
// or, for an answer JSON cannot carry (a NaN or infinite edge), every
// value printed exactly, signed zeros included.
func planAnswer(res *plan.DenseResult, err error) string {
	if err != nil {
		return "error"
	}
	answer := struct {
		Count uint64
		Sel   []uint64
		Hist1 *histogram.Hist1D
		Hist2 *histogram.Hist2D
	}{res.Count, res.Sel, res.Hist1, res.Hist2}
	if b, err := json.Marshal(answer); err == nil {
		return string(b)
	}
	s := fmt.Sprint(answer.Count, answer.Sel)
	if h := answer.Hist1; h != nil {
		s += fmt.Sprint(h.Var, h.Edges, h.Counts)
	}
	if h := answer.Hist2; h != nil {
		s += fmt.Sprint(h.XVar, h.YVar, h.XEdges, h.YEdges, h.Counts)
	}
	return s
}

// wireRunner runs each fragment as a shard worker answers it over RPC:
// the fragment and the reply each gob-encoded and decoded (as their
// frames, checksummed and validated) around Service.Exec, so the shard
// evaluates the fragment it was sent and the planner merges decoded
// partials as the frontend does.
type wireRunner struct {
	t   *testing.T
	svc *shard.Service
}

func (r wireRunner) RunFragment(_ context.Context, _ int, f plan.Fragment) (*plan.FragmentResult, error) {
	var args shard.ExecArgs
	var reply, got shard.ExecReply
	err := overGob(&shard.ExecArgs{Frag: f}, &args)
	if err == nil {
		if err = r.svc.Exec(&args, &reply); err != nil {
			return nil, err
		}
		err = overGob(&reply, &got)
	}
	if err != nil {
		// Fragments may run off the test goroutine: report, and let the
		// failed fragment fail the answer.
		r.t.Errorf("reply over the wire: %v", err)
		return nil, err
	}
	return got.Result, nil
}

// overGob decodes into out what gob encodes of in.
func overGob(in, out any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		return err
	}
	return gob.NewDecoder(&buf).Decode(out)
}

// FuzzPlanSplits is the plan-level differential oracle: one fuzzed
// multi-chunk step, its ids distinct or repeating, one count, select,
// hist1d or hist2d (adaptive ones with a density floor or none), run through
// plan.Execute on shard workers at splits {1, 2, 3, 5, 7} and on both
// backends, every fragment and partial crossing the wire (wireRunner). Every split
// answers byte-for-byte what one shard does, one shard answers what the
// in-process executor does, and FastBit answers what Scan does (FastBit
// is skipped when the condition names the NaN/±Inf column c, which no
// index holds, and on a zero-row step, which has no index). The seed
// corpus is testdata/fuzz.
func FuzzPlanSplits(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &planBytes{b: data}
		rows := uint64(in.next() % 97)
		chunkRows := 1 + in.next()%13
		bins := 1 + in.next()%8
		cols := planColumns(in, rows)
		q := planQuery(in)
		// The id period and then the adaptive density floor are drawn
		// last, so older inputs keep their meaning (period 0: every id
		// distinct; floor 0: none).
		dir := planDataset(t, cols, planIDs(rows, in.next()%8), chunkRows, bins)
		q.Spec1.MinDensity = planDensity[in.next()%len(planDensity)]
		q.Spec2.MinDensity = q.Spec1.MinDensity
		backends := []fastquery.Backend{fastquery.Scan, fastquery.FastBit}
		if rows == 0 || q.Query != "" && slices.Contains(query.Vars(query.MustParse(q.Query)), "c") {
			backends = backends[:1]
		}
		var first string
		for _, b := range backends {
			q.Backend = b
			var want string
			for _, shards := range []int{1, 2, 3, 5, 7} {
				// A fresh executor per split, so no stored selection
				// carries from one topology to the next.
				ex := shard.NewExecutor(shard.FragCacheBytes)
				if err := ex.AddDataset("fuzz", dir); err != nil {
					t.Fatal(err)
				}
				got := planAnswer(plan.Execute(context.Background(), q, plan.ShardMap{Shards: shards}, rows,
					wireRunner{t, shard.NewService(ex, nil)}, plan.FailFast))
				if shards == 1 {
					want = got
					local := planAnswer(plan.Execute(context.Background(), q, plan.ShardMap{Shards: 1}, rows,
						execRunner{ex}, plan.FailFast))
					if local != want {
						t.Fatalf("%d rows, chunks of %d, %v %v %q %+v %+v: over the wire\n%s\nin process\n%s",
							rows, chunkRows, b, q.Op, q.Query, q.Spec1, q.Spec2, want, local)
					}
				} else if got != want {
					t.Fatalf("%d rows, chunks of %d, %v %v %q %+v %+v: %d shards answer\n%s\none shard\n%s",
						rows, chunkRows, b, q.Op, q.Query, q.Spec1, q.Spec2, shards, got, want)
				}
				ex.Close()
			}
			if first == "" {
				first = want
			} else if want != first {
				t.Fatalf("%d rows, chunks of %d, %v %q %+v %+v: fastbit answers\n%s\nscan\n%s",
					rows, chunkRows, q.Op, q.Query, q.Spec1, q.Spec2, want, first)
			}
		}
	})
}

// TestConstantColumnScatter: an unconditional histogram without a range
// over a constant column — uniform and adaptive, 1D and 2D, both
// backends — answers on 3 shards, every partial over the wire, what one
// process does, over edges of UniformEdges(v, v, n): the column's own
// min/max, never the index's bounds, which a constant column widens.
func TestConstantColumnScatter(t *testing.T) {
	const rows, v, bins = 90, 7.0, 4
	cols := map[string][]float64{}
	for r := range rows {
		cols["a"] = append(cols["a"], v)
		cols["b"] = append(cols["b"], float64(r%5))
		cols["c"] = append(cols["c"], float64(r))
	}
	dir := planDataset(t, cols, planIDs(rows, 0), 16, bins)
	for _, b := range []fastquery.Backend{fastquery.Scan, fastquery.FastBit} {
		for _, binning := range []histogram.Binning{histogram.Uniform, histogram.Adaptive} {
			grid := histogram.UniformEdges(v, v, bins)
			if binning == histogram.Adaptive {
				grid = histogram.UniformEdges(v, v, bins*histogram.AdaptiveRefine)
			}
			s1 := histogram.NewSpec1D("a", bins)
			s1.Binning = binning
			for _, q := range []plan.Query{
				{Op: plan.OpHist1D, Dataset: "fuzz", Backend: b, Spec1: s1},
				{Op: plan.OpHist2D, Dataset: "fuzz", Backend: b, Spec2: histogram.NewSpec2D("a", "b", bins, 5).WithBinning(binning)},
			} {
				var answers []string
				for _, shards := range []int{1, 3} {
					ex := shard.NewExecutor(shard.FragCacheBytes)
					if err := ex.AddDataset("fuzz", dir); err != nil {
						t.Fatal(err)
					}
					res, err := plan.Execute(context.Background(), q, plan.ShardMap{Shards: shards}, rows,
						wireRunner{t, shard.NewService(ex, nil)}, plan.FailFast)
					ex.Close()
					if err != nil {
						t.Fatalf("%v %v %v, %d shards: %v", b, binning, q.Op, shards, err)
					}
					var edges []float64
					if res.Hist1 != nil {
						edges = res.Hist1.Edges
					} else {
						edges = res.Hist2.XEdges
					}
					onGrid := len(edges) == bins+1
					for _, e := range edges {
						onGrid = onGrid && slices.ContainsFunc(grid, func(g float64) bool { return math.Float64bits(g) == math.Float64bits(e) })
					}
					if !onGrid {
						t.Fatalf("%v %v %v, %d shards: edges %v are not %d bins of UniformEdges(%v, %v, %d)",
							b, binning, q.Op, shards, edges, bins, v, v, len(grid)-1)
					}
					answers = append(answers, planAnswer(res, nil))
				}
				if answers[0] != answers[1] {
					t.Fatalf("%v %v %v: 3 shards answer\n%s\none process\n%s", b, binning, q.Op, answers[1], answers[0])
				}
			}
		}
	}
}
