package plan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/scan"
)

func TestShardMapRangePartition(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 7, 16} {
		for _, rows := range []uint64{0, 1, 2, 99, 100, 101, 1 << 20} {
			m := ShardMap{Shards: shards}
			var covered uint64
			prevHi := uint64(0)
			minSize, maxSize := rows+1, uint64(0)
			for i := 0; i < shards; i++ {
				rr := m.Range(i, rows)
				if rr.Lo != prevHi {
					t.Fatalf("shards=%d rows=%d: shard %d starts at %d, want %d", shards, rows, i, rr.Lo, prevHi)
				}
				if rr.Hi < rr.Lo {
					t.Fatalf("shards=%d rows=%d: shard %d inverted range %+v", shards, rows, i, rr)
				}
				size := rr.Hi - rr.Lo
				if size < minSize {
					minSize = size
				}
				if size > maxSize {
					maxSize = size
				}
				covered += size
				prevHi = rr.Hi
			}
			if covered != rows || prevHi != rows {
				t.Fatalf("shards=%d rows=%d: covered %d, ended at %d", shards, rows, covered, prevHi)
			}
			if shards > 1 && maxSize-minSize > 1 {
				t.Fatalf("shards=%d rows=%d: imbalance %d", shards, rows, maxSize-minSize)
			}
		}
	}
}

func TestFragmentKey(t *testing.T) {
	base := Fragment{
		Op: FragHist1D, Dataset: "lwfa", Step: 2, Rows: RowRange{10, 20},
		Query: "(px > 0.5)", Backend: fastquery.FastBit,
		Spec1: histogram.Spec1D{Var: "x", Bins: 64, Lo: 0, Hi: 1},
	}
	if base.Key() != base.Key() {
		t.Fatal("Key not deterministic")
	}
	seen := map[string]string{base.Key(): "base"}
	mutations := map[string]Fragment{}
	f := base
	f.Step = 3
	mutations["step"] = f
	f = base
	f.Rows = RowRange{10, 21}
	mutations["rows"] = f
	f = base
	f.Query = "(px > 0.6)"
	mutations["query"] = f
	f = base
	f.Backend = fastquery.Scan
	mutations["backend"] = f
	f = base
	f.Spec1.Bins = 128
	mutations["bins"] = f
	f = base
	f.Spec1.Hi = 2
	mutations["hi"] = f
	f = base
	f.Op = FragMinMax
	mutations["op"] = f
	for name, m := range mutations {
		k := m.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("mutation %q collides with %q: %q", name, prev, k)
		}
		seen[k] = name
	}
}

func TestMergeRanges(t *testing.T) {
	parts := []*FragmentResult{
		{MinMax: []VarRange{{Var: "x", Lo: -1, Hi: 2, N: 10}}},
		nil, // failed shard under ReturnPartial
		{MinMax: []VarRange{{Var: "x", Lo: -3, Hi: 1, N: 4}}},
		{MinMax: []VarRange{{Var: "x", Lo: 99, Hi: 100, N: 0}}}, // empty selection: skipped
	}
	got := mergeRanges([]string{"x"}, parts)["x"]
	want := VarRange{Var: "x", Lo: -3, Hi: 2, N: 14}
	if got != want {
		t.Fatalf("merged = %+v, want %+v", got, want)
	}

	// A tie between -0 and +0 keeps the sign seen first in row order, as
	// scan.MinMax does: selected values [-1, -0 | 0] split over two shards
	// merge to hi = -0, not +0.
	negZero := math.Copysign(0, -1)
	signed := mergeRanges([]string{"x"}, []*FragmentResult{
		{MinMax: []VarRange{{Var: "x", Lo: -1, Hi: negZero, N: 2}}},
		{MinMax: []VarRange{{Var: "x", Lo: 0, Hi: 0, N: 1}}},
	})["x"]
	if signed.Lo != -1 || signed.Hi != 0 || !math.Signbit(signed.Hi) || signed.N != 3 {
		t.Fatalf("signed-zero merge = %+v (hi sign bit %v), want hi = -0", signed, math.Signbit(signed.Hi))
	}
	if _, hi := scan.MinMax([]float64{-1, negZero, 0}); !math.Signbit(hi) {
		t.Fatal("scan.MinMax no longer keeps the first zero's sign")
	}

	// A shard whose selected values are all NaN reports (NaN, NaN); like a
	// NaN value in scan.MinMax it does not poison the merge.
	nan := mergeRanges([]string{"x"}, []*FragmentResult{
		{MinMax: []VarRange{{Var: "x", Lo: math.NaN(), Hi: math.NaN(), N: 2}}},
		{MinMax: []VarRange{{Var: "x", Lo: 1, Hi: 3, N: 2}}},
	})["x"]
	if nan.Lo != 1 || nan.Hi != 3 || nan.N != 4 {
		t.Fatalf("merge past an all-NaN part = %+v", nan)
	}

	// All-empty collapses to (0, 0), matching scan.MinMax on no rows.
	empty := mergeRanges([]string{"x"}, []*FragmentResult{
		{MinMax: []VarRange{{Var: "x", Lo: 5, Hi: 6, N: 0}}},
	})["x"]
	if empty.Lo != 0 || empty.Hi != 0 || empty.N != 0 {
		t.Fatalf("all-empty merge = %+v", empty)
	}
}

// fakeRunner records dispatched fragments and answers them synthetically;
// failShards simulates unreachable shards with retryable errors.
type fakeRunner struct {
	mu         sync.Mutex
	calls      []Fragment
	callShards []int
	failShards map[int]bool
	fatalAll   bool
}

func (r *fakeRunner) RunFragment(_ context.Context, shard int, f Fragment) (*FragmentResult, error) {
	r.mu.Lock()
	r.calls = append(r.calls, f)
	r.callShards = append(r.callShards, shard)
	r.mu.Unlock()
	if r.fatalAll {
		return nil, fastquery.Fatalf("poison fragment")
	}
	if r.failShards[shard] {
		return nil, errors.New("connection refused")
	}
	switch f.Op {
	case FragCount:
		return &FragmentResult{Count: f.Rows.Hi - f.Rows.Lo}, nil
	case FragSelect:
		return &FragmentResult{}, nil
	case FragMinMax:
		var mm []VarRange
		for _, v := range f.Vars {
			mm = append(mm, VarRange{Var: v, Lo: float64(shard), Hi: float64(shard + 10), N: 1})
		}
		return &FragmentResult{MinMax: mm}, nil
	case FragHist1D:
		return &FragmentResult{Hist1: &histogram.Cells1D{
			Var:   f.Spec1.Var,
			Edges: histogram.UniformEdges(f.Spec1.Lo, f.Spec1.Hi, f.Spec1.Bins),
		}}, nil
	case FragHist2D:
		return &FragmentResult{Hist2: &histogram.Cells2D{
			XVar:   f.Spec2.XVar,
			YVar:   f.Spec2.YVar,
			XEdges: histogram.UniformEdges(f.Spec2.XLo, f.Spec2.XHi, f.Spec2.XBins),
			YEdges: histogram.UniformEdges(f.Spec2.YLo, f.Spec2.YHi, f.Spec2.YBins),
		}}, nil
	}
	return nil, fmt.Errorf("unexpected op %v", f.Op)
}

func (r *fakeRunner) ops() []FragOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FragOp, len(r.calls))
	for i, f := range r.calls {
		out[i] = f.Op
	}
	return out
}

func histQuery(q string, spec histogram.Spec1D) Query {
	return Query{Op: OpHist1D, Dataset: "d", Step: 0, Query: q,
		Backend: fastquery.Scan, Spec1: spec}
}

// TestRoutingFleetRanges: on a fleet every fragment of every plan is one
// shard's row range — no whole-step fragment — and each histogram takes
// the phases its spec needs: min/max for an axis without a range, then a
// fine FragHist1D per adaptive axis at AdaptiveRefine·bins, then a final
// fragment carrying the resolved range and cuts. One process runs one
// whole-step fragment with the client's spec.
func TestRoutingFleetRanges(t *testing.T) {
	adaptive1 := histogram.Spec1D{Var: "x", Bins: 8, Lo: 0, Hi: 1, Binning: histogram.Adaptive}
	unranged1 := histogram.NewSpec1D("x", 8)
	unranged1.Binning = histogram.Adaptive
	adaptive2 := histogram.NewSpec2D("x", "y", 4, 6).WithXRange(-1, 1).WithBinning(histogram.Adaptive)
	h2 := func(cond string, spec histogram.Spec2D) Query {
		return Query{Op: OpHist2D, Dataset: "d", Query: cond, Backend: fastquery.Scan, Spec2: spec}
	}
	cases := []struct {
		name string
		q    Query
		ops  []FragOp // one shard's fragments, phase by phase
	}{
		{"count", Query{Op: OpCount, Dataset: "d", Query: "(px > 1)"}, []FragOp{FragCount}},
		{"select", Query{Op: OpSelect, Dataset: "d"}, []FragOp{FragSelect}},
		{"adaptive", histQuery("(px > 1)", adaptive1), []FragOp{FragHist1D, FragHist1D}},
		{"unranged-adaptive", histQuery("", unranged1), []FragOp{FragMinMax, FragHist1D, FragHist1D}},
		{"uncond-no-range", histQuery("", histogram.NewSpec1D("x", 8)), []FragOp{FragMinMax, FragHist1D}},
		{"uncond-no-range-2d", h2("", histogram.NewSpec2D("x", "y", 4, 4)), []FragOp{FragMinMax, FragHist2D}},
		{"adaptive-2d", h2("(px > 1)", adaptive2), []FragOp{FragMinMax, FragHist1D, FragHist1D, FragHist2D}},
	}
	const rows = 1000
	for _, c := range cases {
		m := ShardMap{Shards: 4}
		r := &fakeRunner{}
		res, err := Execute(context.Background(), c.q, m, rows, r, FailFast)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Mode != "scatter" || res.Fragments != len(c.ops)*m.Shards || len(r.calls) != res.Fragments {
			t.Fatalf("%s: mode=%q fragments=%d calls=%d, want scatter/%d", c.name, res.Mode, res.Fragments, len(r.calls), len(c.ops)*m.Shards)
		}
		var ops []FragOp
		for i, f := range r.calls {
			if want := m.Range(r.callShards[i], rows); f.Rows != want {
				t.Fatalf("%s: %v fragment on shard %d covers %+v, want its range %+v", c.name, f.Op, r.callShards[i], f.Rows, want)
			}
			if r.callShards[i] == 1 {
				ops = append(ops, f.Op)
			}
			fine := i < len(r.calls)-m.Shards && f.Op == FragHist1D
			if fine && (f.Spec1.Bins%histogram.AdaptiveRefine != 0 || f.Spec1.Binning != histogram.Uniform || !f.Spec1.HasRange()) {
				t.Fatalf("%s: fine fragment spec %+v", c.name, f.Spec1)
			}
		}
		// Phases run in order, so a shard's fragments arrive phase by
		// phase; within the fine phase the axes' order is free.
		if fmt.Sprint(ops) != fmt.Sprint(c.ops) {
			t.Fatalf("%s: shard 1 ran %v, want %v", c.name, ops, c.ops)
		}
		final := r.calls[len(r.calls)-1]
		switch c.q.Op {
		case OpHist1D:
			s := final.Spec1
			if !s.HasRange() || (s.Binning == histogram.Adaptive) != (s.Cuts != nil) {
				t.Fatalf("%s: final spec %+v unresolved", c.name, s)
			}
			if s.Cuts != nil {
				if err := histogram.CheckCuts(s.Cuts, s.Bins); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
		case OpHist2D:
			s := final.Spec2
			if !s.HasXRange() || !s.HasYRange() || (s.Binning == histogram.Adaptive) != (s.XCuts != nil && s.YCuts != nil) {
				t.Fatalf("%s: final spec %+v unresolved", c.name, s)
			}
		}

		r = &fakeRunner{}
		res, err = Execute(context.Background(), c.q, ShardMap{Shards: 1}, rows, r, FailFast)
		if err != nil {
			t.Fatalf("%s local: %v", c.name, err)
		}
		if res.Mode != "local" || len(r.calls) != 1 || r.calls[0].Rows != (RowRange{}) {
			t.Fatalf("%s local: mode=%q calls=%+v, want one whole-step fragment", c.name, res.Mode, r.calls)
		}
		if f := r.calls[0]; fmt.Sprint(f.Spec1, f.Spec2) != fmt.Sprint(c.q.Spec1, c.q.Spec2) { // NaN marks an unset range
			t.Fatalf("%s local: fragment spec %+v %+v, want the client's", c.name, f.Spec1, f.Spec2)
		}
	}
}

func TestRoutingTwoPhase(t *testing.T) {
	m := ShardMap{Shards: 3}
	q := histQuery("(px > 1)", histogram.NewSpec1D("x", 8)) // no range: needs minmax phase
	r := &fakeRunner{}
	res, err := Execute(context.Background(), q, m, 999, r, ReturnPartial)
	if err != nil {
		t.Fatal(err)
	}
	ops := r.ops()
	if len(ops) != 6 {
		t.Fatalf("fragments = %v, want 3 minmax + 3 hist", ops)
	}
	minmax, hist := 0, 0
	for _, op := range ops {
		switch op {
		case FragMinMax:
			minmax++
		case FragHist1D:
			hist++
		default:
			t.Fatalf("unexpected op %v", op)
		}
	}
	if minmax != 3 || hist != 3 {
		t.Fatalf("minmax=%d hist=%d", minmax, hist)
	}
	if res.Mode != "scatter" || res.Fragments != 6 || res.Partial {
		t.Fatalf("res = %+v", res)
	}
	// The merged range spans all shards' partials: lo = min shard id (0),
	// hi = max shard id + 10 (12); every hist fragment must carry it.
	for _, f := range r.calls {
		if f.Op == FragHist1D && (f.Spec1.Lo != 0 || f.Spec1.Hi != 12) {
			t.Fatalf("hist fragment spec = %+v", f.Spec1)
		}
	}
}

func TestRoutingExplicitRangeSkipsMinMax(t *testing.T) {
	m := ShardMap{Shards: 3}
	spec := histogram.NewSpec1D("x", 8)
	spec.Lo, spec.Hi = -1, 1
	r := &fakeRunner{}
	if _, err := Execute(context.Background(), histQuery("(px > 1)", spec), m, 999, r, FailFast); err != nil {
		t.Fatal(err)
	}
	for _, op := range r.ops() {
		if op != FragHist1D {
			t.Fatalf("unexpected op %v", op)
		}
	}
}

func TestCountScatterAndPartial(t *testing.T) {
	m := ShardMap{Shards: 4}
	q := Query{Op: OpCount, Dataset: "d", Query: "(px > 1)", Backend: fastquery.Scan}

	r := &fakeRunner{}
	res, err := Execute(context.Background(), q, m, 1000, r, ReturnPartial)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1000 || res.Partial {
		t.Fatalf("res = %+v", res)
	}

	// One shard down: ReturnPartial sums the survivors and marks it.
	r = &fakeRunner{failShards: map[int]bool{2: true}}
	res, err = Execute(context.Background(), q, m, 1000, r, ReturnPartial)
	if err != nil {
		t.Fatal(err)
	}
	lost := m.Range(2, 1000)
	if res.Count != 1000-(lost.Hi-lost.Lo) || !res.Partial || !reflect.DeepEqual(res.Failed, []int{2}) {
		t.Fatalf("partial res = %+v", res)
	}

	// Same failure under FailFast is an error.
	r = &fakeRunner{failShards: map[int]bool{2: true}}
	if _, err := Execute(context.Background(), q, m, 1000, r, FailFast); err == nil {
		t.Fatal("FailFast did not fail")
	}

	// All shards down: error even under ReturnPartial.
	r = &fakeRunner{failShards: map[int]bool{0: true, 1: true, 2: true, 3: true}}
	if _, err := Execute(context.Background(), q, m, 1000, r, ReturnPartial); err == nil {
		t.Fatal("all-failed did not error")
	}

	// Fatal errors short-circuit regardless of policy.
	r = &fakeRunner{fatalAll: true}
	if _, err := Execute(context.Background(), q, m, 1000, r, ReturnPartial); err == nil || !fastquery.IsFatal(err) {
		t.Fatalf("fatal not propagated: %v", err)
	}
}

func TestZeroRowsCount(t *testing.T) {
	r := &fakeRunner{}
	q := Query{Op: OpCount, Dataset: "d", Backend: fastquery.Scan}
	res, err := Execute(context.Background(), q, ShardMap{Shards: 3}, 0, r, ReturnPartial)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || len(r.ops()) != 0 {
		t.Fatalf("res=%+v ops=%v, want a zero count and no fragment", res, r.ops())
	}
}

// TestMergeDecodedPartials: partials that crossed the wire merge into the
// same answer as their in-process originals — the same expanded counts
// and the same wire bytes — a lone one included, and the merge never
// changes a partial.
func TestMergeDecodedPartials(t *testing.T) {
	spec := histogram.NewSpec2D("x", "y", 4, 3)
	edges := func(n int) []float64 { return histogram.UniformEdges(0, 1, n) }
	var local, wire []*FragmentResult
	for k := 0; k < 3; k++ {
		h := &histogram.Hist2D{XVar: "x", YVar: "y", XEdges: edges(4), YEdges: edges(3), Counts: make([]uint64, 12)}
		h.Counts[k*5%12] = uint64(k + 1)
		h.Counts[11-k] += 7
		local = append(local, &FragmentResult{Hist2: h.Cells()})
		wire = append(wire, overWire(t, local[k]))
	}
	for _, n := range []int{1, 3} {
		want, err := mergeHist2(spec, local[:n])
		if err != nil {
			t.Fatal(err)
		}
		got, err := mergeHist2(spec, wire[:n])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Dense(), want.Dense()) {
			t.Fatalf("%d partials: wire %+v, in process %+v", n, got.Dense(), want.Dense())
		}
		gotWire, err := got.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantWire, err := want.AppendWire(nil); err != nil || !bytes.Equal(gotWire, wantWire) {
			t.Fatalf("%d partials: wire bytes %x, in process %x (%v)", n, gotWire, wantWire, err)
		}
	}
	if c := local[0].Hist2.Dense().Counts; c[0] != 1 || c[11] != 7 || local[0].Hist2.Total() != 8 {
		t.Fatalf("merge changed a partial: %v", c)
	}

	h1 := (&histogram.Hist1D{Var: "x", Edges: edges(5), Counts: []uint64{0, 4, 0, 0, 9}}).Cells()
	got, err := mergeHist1(histogram.NewSpec1D("x", 5), []*FragmentResult{overWire(t, &FragmentResult{Hist1: h1}), nil, {Hist1: h1}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{0, 8, 0, 0, 18}; !reflect.DeepEqual(got.Dense().Counts, want) || got.Total() != 26 {
		t.Fatalf("1d merge: %v (total %d), want %v", got.Dense().Counts, got.Total(), want)
	}
}
