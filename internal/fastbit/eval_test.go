package fastbit

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/query"
	"repro/internal/scan"
)

// buildTestStep builds an in-memory step with momentum-like and position-
// like columns plus an identifier column.
func buildTestStep(t *testing.T, n int, seed int64, opt IndexOptions) (*StepIndex, MemReader, []int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	px := make([]float64, n)
	x := make([]float64, n)
	y := make([]float64, n)
	ids := make([]int64, n)
	perm := rng.Perm(n)
	for i := range px {
		if rng.Float64() < 0.03 {
			px[i] = math.Pow(10, 9+rng.Float64()*2)
		} else {
			px[i] = rng.NormFloat64() * 1e8
		}
		x[i] = rng.Float64() * 1e-3
		y[i] = rng.NormFloat64() * 1e-5
		ids[i] = int64(perm[i]) * 3 // sparse, shuffled ids
	}
	cols := map[string][]float64{"px": px, "x": x, "y": y}
	si, err := BuildStepIndex(cols, ids, "id", opt)
	if err != nil {
		t.Fatal(err)
	}
	mem := MemReader{"px": px, "x": x, "y": y}
	idf := make([]float64, n)
	for i, id := range ids {
		idf[i] = float64(id)
	}
	mem["id"] = idf
	return si, mem, ids
}

// scanColumns adapts a MemReader to the scan baseline's column map.
func scanColumns(mem MemReader) scan.Columns {
	c := scan.Columns{}
	for name, col := range mem {
		c[name] = col
	}
	return c
}

func TestEvaluatorMatchesScanOnCompoundQueries(t *testing.T) {
	si, mem, _ := buildTestStep(t, 8000, 21, IndexOptions{Bins: 64})
	ev := si.Evaluator(mem)
	cols := scanColumns(mem)
	queries := []string{
		"px > 1e9",
		"px > 1e9 && y > 0",
		"px > 1e9 && y < 1e-5 && x > 5e-4", // the paper's query shape
		"px < -1e8 || px > 1e9",
		"!(px > 0)",
		"x >= 0.0005 && x < 0.0006",
		"px == 0",
		"px != 0",
		"(x > 1e-4 || y > 0) && px > -1e7",
		"px > 1e20",   // empty
		"px >= -1e20", // everything
	}
	for _, q := range queries {
		e := query.MustParse(q)
		want, err := scan.SelectCtx(context.Background(), cols, e)
		if err != nil {
			t.Fatalf("%q scan: %v", q, err)
		}
		got, err := ev.SelectCtx(context.Background(), e, 0, ev.N)
		if err != nil {
			t.Fatalf("%q fastbit: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: fastbit %d hits, scan %d hits", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q: position %d differs: %d vs %d", q, i, got[i], want[i])
			}
		}
	}
}

// TestEvaluatorSelectWindow: a windowed SelectCtx returns the whole-step
// selection clipped to [lo, hi), rejects ranges outside [0, N), and leaves
// no window behind for a later Count.
func TestEvaluatorSelectWindow(t *testing.T) {
	si, mem, _ := buildTestStep(t, 2000, 22, IndexOptions{Bins: 32})
	ev := si.Evaluator(mem)
	e := query.MustParse("px > 0 && !(y > 1e-5)")
	all, err := ev.SelectCtx(context.Background(), e, 0, ev.N)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]uint64{{0, 2000}, {0, 0}, {700, 701}, {31, 1337}, {1999, 2000}} {
		got, err := ev.SelectCtx(context.Background(), e, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for _, p := range all {
			if p >= r[0] && p < r[1] {
				want = append(want, p)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("[%d, %d): %d hits, want %d", r[0], r[1], len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%d, %d): position %d is %d, want %d", r[0], r[1], i, got[i], want[i])
			}
		}
	}
	for _, r := range [][2]uint64{{5, 4}, {0, 2001}} {
		if _, err := ev.SelectCtx(context.Background(), e, r[0], r[1]); err == nil {
			t.Errorf("range [%d, %d) accepted", r[0], r[1])
		}
	}
	if _, err := ev.SelectCtx(context.Background(), e, 31, 40); err != nil {
		t.Fatal(err)
	}
	if cnt, err := ev.CountIn(context.Background(), e, 0, ev.N); err != nil || cnt != uint64(len(all)) {
		t.Fatalf("Count after a windowed select = %d, %v; want %d", cnt, err, len(all))
	}
}

func TestEvaluatorCount(t *testing.T) {
	si, mem, _ := buildTestStep(t, 2000, 22, IndexOptions{Bins: 32})
	ev := si.Evaluator(mem)
	e := query.MustParse("px > 0")
	cnt, err := ev.CountIn(context.Background(), e, 0, ev.N)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := ev.SelectCtx(context.Background(), e, 0, ev.N)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != uint64(len(sel)) {
		t.Fatalf("Count %d != len(Select) %d", cnt, len(sel))
	}
}

func TestEvaluatorUnknownVariable(t *testing.T) {
	si, mem, _ := buildTestStep(t, 100, 23, IndexOptions{Bins: 8})
	ev := si.Evaluator(mem)
	if _, err := ev.EvalCtx(context.Background(), query.MustParse("nope > 0")); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := ev.EvalCtx(context.Background(), query.MustParse("nope in (1,2)")); err == nil {
		t.Fatal("unknown in-variable accepted")
	}
}

func TestEvaluatorIDQuery(t *testing.T) {
	si, mem, ids := buildTestStep(t, 5000, 24, IndexOptions{Bins: 32})
	ev := si.Evaluator(mem)
	// Pick some identifiers that exist and some that do not.
	want := []int64{ids[0], ids[4999], ids[2500], ids[2500] + 1} // +1 never a multiple of 3
	vals := make([]float64, len(want))
	for i, id := range want {
		vals[i] = float64(id)
	}
	in := query.NewIn("id", vals)
	got, err := ev.SelectCtx(context.Background(), in, 0, ev.N)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := scan.FindIDsCtx(context.Background(), ids, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("ID query: %d hits, want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("ID query position %d: %d vs %d", i, got[i], ref[i])
		}
	}
}

func TestEvaluatorInOnNonIDColumn(t *testing.T) {
	si, mem, _ := buildTestStep(t, 3000, 25, IndexOptions{Bins: 32})
	ev := si.Evaluator(mem)
	px := mem["px"]
	in := query.NewIn("px", []float64{px[17], px[1234], 1e300})
	got, err := ev.SelectCtx(context.Background(), in, 0, ev.N)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.SelectCtx(context.Background(), scanColumns(mem), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("in on px: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("in on px: position %d differs", i)
		}
	}
}

func TestEvaluatorRandomThresholdProperty(t *testing.T) {
	si, mem, _ := buildTestStep(t, 2000, 26, IndexOptions{Bins: 48})
	ev := si.Evaluator(mem)
	cols := scanColumns(mem)
	f := func(u float64, ge bool) bool {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return true
		}
		ix := si.Columns["px"]
		thr := ix.Min() + math.Mod(math.Abs(u), 1)*(ix.Max()-ix.Min())
		op := ">"
		if ge {
			op = ">="
		}
		e := query.MustParse("px " + op + " " + formatG(thr))
		got, err := ev.CountIn(context.Background(), e, 0, ev.N)
		if err != nil {
			return false
		}
		want, err := scan.Count(cols, e)
		if err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func formatG(v float64) string {
	// strconv via query formatting: reuse Compare.String.
	c := query.Compare{Var: "t", Op: query.GT, Value: v}
	s := c.String()
	return s[len("t > "):]
}

// TestSelectIDs: the tracking handoff within one step — the identifiers
// at a selection's rows, selected back by an `id in` membership through
// the identifier index, are exactly that selection's rows.
func TestSelectIDs(t *testing.T) {
	si, mem, ids := buildTestStep(t, 4000, 27, IndexOptions{Bins: 32})
	ev := si.Evaluator(mem)
	ctx := context.Background()
	pos, err := ev.SelectCtx(ctx, query.MustParse("px > 1e9"), 0, ev.N)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) == 0 {
		t.Fatal("vacuous: empty selection")
	}
	vals := make([]float64, len(pos))
	for i, p := range pos {
		vals[i] = float64(ids[p])
	}
	got, err := ev.SelectCtx(ctx, query.NewIn("id", vals), 0, ev.N)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, pos) {
		t.Fatalf("id in (the selection's %d ids) selected %d rows", len(pos), len(got))
	}
}

func TestIDIndexLookup(t *testing.T) {
	ids := []int64{50, 10, 30, 10, 90}
	x := BuildIDIndex(ids)
	if x.Len() != 5 {
		t.Fatalf("Len = %d", x.Len())
	}
	got := x.LookupOne(10)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("LookupOne(10) = %v", got)
	}
	if got := x.LookupOne(11); len(got) != 0 {
		t.Fatalf("LookupOne(11) = %v", got)
	}
	all := x.Lookup([]int64{90, 10, 10})
	if len(all) != 3 || all[0] != 1 || all[1] != 3 || all[2] != 4 {
		t.Fatalf("Lookup = %v", all)
	}
	if x.SizeBytes() <= 0 {
		t.Fatal("SizeBytes nonpositive")
	}
}

func TestIDIndexMatchesScanProperty(t *testing.T) {
	f := func(idsRaw []int64, setRaw []int64) bool {
		x := BuildIDIndex(idsRaw)
		got := x.Lookup(setRaw)
		want, err := scan.FindIDsCtx(context.Background(), idsRaw, setRaw)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalStatsAccumulate(t *testing.T) {
	si, mem, _ := buildTestStep(t, 3000, 28, IndexOptions{Bins: 16})
	ev := si.Evaluator(mem)
	// Find an unaligned threshold inside a straddled bin.
	ix := si.Columns["px"]
	var thr float64
	for b := 0; b < ix.Bins(); b++ {
		if ix.BinMin[b] < ix.BinMax[b] {
			thr = (ix.BinMin[b] + ix.BinMax[b]) / 2
			if thr > ix.BinMin[b] && thr < ix.BinMax[b] {
				break
			}
		}
	}
	if _, err := ev.EvalCtx(context.Background(), &query.Compare{Var: "px", Op: query.GT, Value: thr}); err != nil {
		t.Fatal(err)
	}
	if ev.Stats.CandidateChecks == 0 {
		t.Fatal("expected candidate checks for unaligned threshold")
	}
}

func TestMemReaderErrors(t *testing.T) {
	m := MemReader{"x": {1, 2, 3}}
	if _, err := m.ValuesAt("nope", []uint64{0}); err == nil {
		t.Fatal("missing column accepted")
	}
	if _, err := m.ValuesAt("x", []uint64{5}); err == nil {
		t.Fatal("out of range position accepted")
	}
	got, err := m.ValuesAt("x", []uint64{2, 0})
	if err != nil || got[0] != 3 || got[1] != 1 {
		t.Fatalf("ValuesAt = %v, %v", got, err)
	}
}

func TestBuildStepIndexValidation(t *testing.T) {
	if _, err := BuildStepIndex(map[string][]float64{
		"a": {1, 2}, "b": {1, 2, 3},
	}, nil, "id", IndexOptions{Bins: 4}); err == nil {
		t.Fatal("ragged columns accepted")
	}
	if _, err := BuildStepIndex(map[string][]float64{
		"a": {1, 2},
	}, []int64{1}, "id", IndexOptions{Bins: 4}); err == nil {
		t.Fatal("ragged id column accepted")
	}
	si, err := BuildStepIndex(nil, []int64{5, 6}, "id", IndexOptions{})
	if err != nil || si.N != 2 || si.ID == nil {
		t.Fatalf("ids-only step: %+v, %v", si, err)
	}
}

func TestEvaluatorPositionsSorted(t *testing.T) {
	si, mem, _ := buildTestStep(t, 2000, 29, IndexOptions{Bins: 16})
	ev := si.Evaluator(mem)
	pos, err := ev.SelectCtx(context.Background(), query.MustParse("px > 1e8 || y > 0"), 0, ev.N)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(pos, func(i, j int) bool { return pos[i] < pos[j] }) {
		t.Fatal("Select positions not sorted")
	}
}

func TestAndShortCircuitSkipsCandidateChecks(t *testing.T) {
	si, mem, _ := buildTestStep(t, 3000, 52, IndexOptions{Bins: 16})
	ev := si.Evaluator(mem)
	// The first term matches nothing (px beyond the data range); the
	// second would need a candidate check, but must never run.
	ix := si.Columns["px"]
	var cut float64
	for b := 0; b < ix.Bins(); b++ {
		if ix.BinMin[b] < ix.BinMax[b] {
			mid := (ix.BinMin[b] + ix.BinMax[b]) / 2
			if mid > ix.BinMin[b] && mid < ix.BinMax[b] {
				cut = mid
				break
			}
		}
	}
	e := &query.And{Terms: []query.Expr{
		&query.Compare{Var: "px", Op: query.GT, Value: ix.Max() + 1},
		&query.Compare{Var: "px", Op: query.GT, Value: cut},
	}}
	got, err := ev.EvalCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != 0 {
		t.Fatalf("impossible conjunction matched %d", got.Count())
	}
	if got.Len() != si.N {
		t.Fatalf("short-circuit result has length %d, want %d", got.Len(), si.N)
	}
	if ev.Stats.CandidateChecks != 0 {
		t.Fatalf("short circuit still did %d candidate checks", ev.Stats.CandidateChecks)
	}
}
