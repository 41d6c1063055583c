package fastbit

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/query"
)

func writeLazyFixture(t *testing.T) (string, *StepIndex, MemReader, []int64) {
	t.Helper()
	si, mem, ids := buildTestStep(t, 3000, 71, IndexOptions{Bins: 32})
	path := filepath.Join(t.TempDir(), "step.idx")
	if err := si.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path, si, mem, ids
}

func TestLazyStepDirectory(t *testing.T) {
	path, si, _, _ := writeLazyFixture(t)
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if ls.N() != si.N {
		t.Fatalf("N = %d, want %d", ls.N(), si.N)
	}
	if ls.IDVar() != "id" {
		t.Fatalf("IDVar = %q", ls.IDVar())
	}
	cols := ls.Columns()
	if len(cols) != len(si.Columns) {
		t.Fatalf("Columns = %v", cols)
	}
	if !ls.HasColumn("px") || ls.HasColumn("nope") {
		t.Fatal("HasColumn wrong")
	}
	// Opening reads only the directory, far less than the file size.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if ls.IndexBytesRead() != 0 {
		t.Fatalf("open loaded %d section bytes", ls.IndexBytesRead())
	}
	_ = st
}

func TestLazyStepLoadsOnDemand(t *testing.T) {
	path, _, mem, ids := writeLazyFixture(t)
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	// An ID lookup loads only the identifier section.
	idIdx, err := ls.IDIndex()
	if err != nil {
		t.Fatal(err)
	}
	pos := idIdx.Lookup([]int64{ids[7]})
	if len(pos) != 1 || pos[0] != 7 {
		t.Fatalf("Lookup = %v", pos)
	}
	afterID := ls.IndexBytesRead()
	if afterID == 0 {
		t.Fatal("ID section not counted")
	}
	st, _ := os.Stat(path)
	if afterID >= uint64(st.Size()) {
		t.Fatalf("ID lookup loaded %d of %d bytes — not lazy", afterID, st.Size())
	}
	// No column section was touched: loading every column afterwards must
	// add the remaining bulk of the file.
	for _, name := range ls.Columns() {
		if _, err := ls.Column(name); err != nil {
			t.Fatal(err)
		}
	}
	if full := ls.IndexBytesRead(); full <= afterID || full >= uint64(st.Size()) {
		t.Fatalf("sections loaded: id=%d full=%d file=%d", afterID, full, st.Size())
	}
	// Reset expectations for the per-column checks below.
	ls.Close()
	ls, err = OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if _, err := ls.IDIndex(); err != nil {
		t.Fatal(err)
	}
	afterID = ls.IndexBytesRead()

	// Loading a column adds its section once; a repeat is cached.
	if _, err := ls.Column("px"); err != nil {
		t.Fatal(err)
	}
	afterPx := ls.IndexBytesRead()
	if afterPx <= afterID {
		t.Fatal("px section not loaded")
	}
	if _, err := ls.Column("px"); err != nil {
		t.Fatal(err)
	}
	if ls.IndexBytesRead() != afterPx {
		t.Fatal("cached column reloaded")
	}
	if _, err := ls.Column("nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
	_ = mem
}

func TestLazyEvaluatorMatchesEager(t *testing.T) {
	path, si, mem, _ := writeLazyFixture(t)
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	queries := []string{
		"px > 1e9 && y > 0",
		"id in (0, 3, 6, 9)",
		"!(px > 0) || x > 5e-4",
	}
	for _, q := range queries {
		e := query.MustParse(q)
		lev, sev := ls.Evaluator(mem), si.Evaluator(mem)
		lazy, err := lev.SelectCtx(context.Background(), e, 0, lev.N)
		if err != nil {
			t.Fatalf("%q lazy: %v", q, err)
		}
		eager, err := sev.SelectCtx(context.Background(), e, 0, sev.N)
		if err != nil {
			t.Fatalf("%q eager: %v", q, err)
		}
		if len(lazy) != len(eager) {
			t.Fatalf("%q: lazy %d vs eager %d", q, len(lazy), len(eager))
		}
		for i := range lazy {
			if lazy[i] != eager[i] {
				t.Fatalf("%q: position %d differs", q, i)
			}
		}
	}
}

func TestOpenLazyErrors(t *testing.T) {
	if _, err := OpenLazy(filepath.Join(t.TempDir(), "missing.idx")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.idx")
	if err := os.WriteFile(bad, []byte("garbage......"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLazy(bad); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEvaluatorLookupFallbacks(t *testing.T) {
	si, mem, _ := buildTestStep(t, 500, 72, IndexOptions{Bins: 8})
	// Static map takes priority; lookup serves the rest.
	ev := &Evaluator{
		N:       si.N,
		Indexes: map[string]*Index{"px": si.Columns["px"]},
		LookupIndex: func(name string, _, _ uint64) (*Index, error) {
			ix, ok := si.Columns[name]
			if !ok {
				return nil, os.ErrNotExist
			}
			return ix, nil
		},
		IDVar: "id",
		Raw:   mem,
	}
	if _, err := ev.SelectCtx(context.Background(), query.MustParse("px > 0 && y > 0"), 0, ev.N); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.SelectCtx(context.Background(), query.MustParse("zz > 0"), 0, ev.N); err == nil {
		t.Fatal("unknown var accepted via lookup")
	}
	// No lookup, no static entry.
	ev2 := &Evaluator{N: si.N, Indexes: map[string]*Index{}, Raw: mem}
	if _, err := ev2.SelectCtx(context.Background(), query.MustParse("px > 0"), 0, ev2.N); err == nil {
		t.Fatal("missing index accepted")
	}
}

func TestIDLookupDiskSearch(t *testing.T) {
	path, si, _, ids := writeLazyFixture(t)
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	// Small set: resolved by on-disk binary search without loading the
	// full ID section.
	set := []int64{ids[3], ids[1500], ids[3], -99} // dup + miss
	got, err := ls.IDLookup(set)
	if err != nil {
		t.Fatal(err)
	}
	want := si.ID.Lookup(set)
	if len(got) != len(want) {
		t.Fatalf("disk lookup: %d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hit %d differs: %d vs %d", i, got[i], want[i])
		}
	}
	// Fewer bytes than the whole section were read (at 4 KiB block
	// granularity the saving is modest for this small fixture and grows
	// with index size).
	idSectionBytes := uint64(16 * len(ids))
	if ls.IndexBytesRead() >= idSectionBytes {
		t.Fatalf("disk search read %d bytes of a %d-byte section", ls.IndexBytesRead(), idSectionBytes)
	}

	// Large set: falls back to loading and caching the full index.
	big := make([]int64, len(ids)/2)
	copy(big, ids[:len(big)])
	got, err = ls.IDLookup(big)
	if err != nil {
		t.Fatal(err)
	}
	want = si.ID.Lookup(big)
	if len(got) != len(want) {
		t.Fatalf("big lookup: %d hits, want %d", len(got), len(want))
	}
	// Subsequent lookups use the cached index.
	after := ls.IndexBytesRead()
	if _, err := ls.IDLookup(set); err != nil {
		t.Fatal(err)
	}
	if ls.IndexBytesRead() != after {
		t.Fatal("cached ID index re-read from disk")
	}
}

func TestIDLookupWithoutIDIndex(t *testing.T) {
	// Build an index file without an identifier index.
	si, _, _ := buildTestStep(t, 200, 73, IndexOptions{Bins: 8})
	si.ID = nil
	si.IDVar = ""
	path := t.TempDir() + "/noid.idx"
	if err := si.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if _, err := ls.IDLookup([]int64{1}); err == nil {
		t.Fatal("IDLookup without ID index accepted")
	}
	if _, err := ls.IDIndex(); err == nil {
		t.Fatal("IDIndex without ID index accepted")
	}
}

// TestLazyStepKeepRows: a step given a resident window keeps each column
// cut to it — already cached columns included — answers selections
// inside the window from that cut without another load, answers one
// outside it by decoding the column afresh and keeping nothing, and
// matches the whole-step index everywhere. A cut index asked for rows
// outside its window is an error, never a silent clip.
func TestLazyStepKeepRows(t *testing.T) {
	path, si, mem, _ := writeLazyFixture(t)
	ls, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	whole, err := ls.Column("x") // cached whole, then cut by KeepRows
	if err != nil {
		t.Fatal(err)
	}
	wholeBytes := ls.IndexBytes()
	const lo, hi = 1000, 2000
	ls.KeepRows(lo, hi)
	ls.KeepRows(0, 500) // the first window is the one kept
	if got := ls.IndexBytes(); got*2 > wholeBytes {
		t.Fatalf("cut column keeps %d bytes, whole %d", got, wholeBytes)
	}
	cut, err := ls.ColumnRows("x", lo, hi, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cut.FirstRow != lo/31*31 || cut.N != whole.N || &cut.Bounds[0] != &whole.Bounds[0] {
		t.Fatalf("cut index: first row %d, N %d; whole N %d", cut.FirstRow, cut.N, whole.N)
	}
	iv := query.Interval{Lo: 2e-4, Hi: 7e-4}
	if _, _, err := cut.EvaluateCtx(context.Background(), iv, mem.rawFor("x"), lo-40, hi); err == nil {
		t.Fatal("cut index evaluated rows before its window")
	}
	if _, _, err := cut.EvaluateCtx(context.Background(), iv, mem.rawFor("x"), lo, hi+1); err == nil {
		t.Fatal("cut index evaluated rows past its window")
	}

	eager := si.Evaluator(mem)
	for _, q := range []string{"px > 1e9 && y > 0", "!(px > 0) || x > 5e-4", "x in (0, 1)"} {
		e := query.MustParse(q)
		// The cut starts at lo's group boundary, and so may a window
		// inside it.
		first := uint64(lo / 31 * 31)
		for _, w := range [][2]uint64{{lo, hi}, {lo + 7, hi - 100}, {first, hi}, {0, si.N}, {first - 1, hi}, {hi, si.N}} {
			var c obs.Cost
			got, err := ls.CostEvaluator(mem, &c).SelectCtx(context.Background(), e, w[0], w[1])
			if err != nil {
				t.Fatalf("%q over %v: %v", q, w, err)
			}
			want, err := eager.SelectCtx(context.Background(), e, w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%q over %v: %d rows, whole-step index %d", q, w, len(got), len(want))
			}
			// Inside the cut, x (cut above) loads nothing again; outside
			// it, every column is decoded afresh.
			inside := w[0] >= first && w[1] <= hi
			if loads := c.Snapshot().IndexLoads; inside && q[0] == 'x' && loads != 0 || !inside && loads == 0 {
				t.Fatalf("%q over %v: %d index loads", q, w, loads)
			}
		}
	}
	// No rows asked, bounds only: the cut answers, with no load.
	var c obs.Cost
	if ix, err := ls.ColumnRows("x", 0, 0, &c); err != nil || ix != cut || c.Snapshot().IndexLoads != 0 {
		t.Fatalf("bounds-only lookup: err %v, the cut %v, %d loads", err, ix == cut, c.Snapshot().IndexLoads)
	}
	// Every column loaded is cut: nothing outside the window was kept.
	for name, ix := range ls.cols {
		if first, end := ix.rows(); first != lo/31*31 || end != hi {
			t.Fatalf("column %s keeps rows [%d, %d)", name, first, end)
		}
	}
}

// rawFor is MemReader's column as a RawValues.
func (m MemReader) rawFor(name string) RawValues {
	return Gathered(func(pos []uint64) ([]float64, error) { return m.ValuesAt(name, pos) })
}
