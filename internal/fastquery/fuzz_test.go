package fastquery

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/fastbit"
	"repro/internal/query"
)

// fuzzPalette is what fuzzed column values and query constants are drawn
// from: few distinct values, so bins hold several and comparisons tie,
// signed zeros, and extremes. Query constants and the indexed columns take
// the finite entries (the parser admits no others); the scan-only column
// c also takes NaN and ±Inf, which an index cannot hold.
var fuzzPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, -3, 7, 1e300, -1e300, 5e-324,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

const fuzzFinite = 10 // fuzzPalette[:fuzzFinite] are finite

// fuzzBytes hands out the fuzz input a byte at a time, zeros once spent.
type fuzzBytes struct {
	b []byte
	i int
}

func (f *fuzzBytes) next() int {
	if f.i >= len(f.b) {
		return 0
	}
	f.i++
	return int(f.b[f.i-1])
}

// fuzzColumns draws a step of rows rows: indexed columns a and b and
// scan-only column c, with values picked from the palette by the input
// bytes, a row at a time.
func fuzzColumns(in *fuzzBytes, rows uint64) map[string][]float64 {
	cols := map[string][]float64{"a": nil, "b": nil, "c": nil}
	for r := uint64(0); r < rows; r++ {
		for _, name := range []string{"a", "b", "c"} {
			n := fuzzFinite
			if name == "c" {
				n = len(fuzzPalette)
			}
			cols[name] = append(cols[name], fuzzPalette[in.next()%n])
		}
	}
	return cols
}

// fuzzStep writes cols as a step in chunks of chunkRows, with an id
// column, and indexes a and b; it returns the open step and its index
// file.
func fuzzStep(t *testing.T, cols map[string][]float64, chunkRows, bins int) (*Step, string) {
	t.Helper()
	dir := t.TempDir()
	data, index := filepath.Join(dir, "step.col"), filepath.Join(dir, "step.idx")
	rows := uint64(len(cols["a"]))
	ids := make([]int64, rows)
	for r := range ids {
		ids[r] = int64(3*r + 1)
	}
	w, err := colstore.NewWriter(data, rows, chunkRows)
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
	if _, err := BuildStepIndex(data, index, []string{"a", "b"}, "id", fastbit.IndexOptions{Bins: bins}); err != nil {
		t.Fatal(err)
	}
	f, err := colstore.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := fastbit.OpenLazy(index)
	if err != nil {
		t.Fatal(err)
	}
	st := &Step{file: f, index: ls}
	t.Cleanup(func() { st.Close() })
	return st, index
}

// cutStep opens the index file anew beside st's data and keeps rows
// [lo, hi) of it resident, the way a shard keeps its own rows.
func cutStep(t *testing.T, st *Step, index string, lo, hi uint64) *Step {
	t.Helper()
	ls, err := fastbit.OpenLazy(index)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ls.Close() })
	cut := &Step{file: st.file, index: ls}
	cut.KeepIndexRows(lo, hi)
	return cut
}

// fuzzExpr builds a random query over a, b, c and id: comparisons with
// every operator including !=, IN lists (the only predicate the ID index
// serves), and &&, || and ! nodes.
func fuzzExpr(in *fuzzBytes, depth int) query.Expr {
	vars := []string{"a", "b", "a", "b", "c", "id"}
	k := in.next()
	if depth <= 0 {
		k %= 3
	}
	switch k % 6 {
	case 0, 1:
		name := vars[in.next()%(len(vars)-1)]
		v := fuzzPalette[in.next()%fuzzFinite]
		return &query.Compare{Var: name, Op: query.Op(in.next() % 6), Value: v}
	case 2:
		name := vars[in.next()%len(vars)]
		vs := make([]float64, 1+in.next()%4)
		for i := range vs {
			if name == "id" {
				vs[i] = float64(in.next() % 64)
			} else {
				vs[i] = fuzzPalette[in.next()%fuzzFinite]
			}
		}
		return query.NewIn(name, vs)
	case 3:
		return &query.Not{Term: fuzzExpr(in, depth-1)}
	case 4:
		return &query.And{Terms: []query.Expr{fuzzExpr(in, depth-1), fuzzExpr(in, depth-1)}}
	default:
		return &query.Or{Terms: []query.Expr{fuzzExpr(in, depth-1), fuzzExpr(in, depth-1)}}
	}
}

// fuzzRange picks a row window: empty, a single row, arbitrary, on
// chunk edges, or the whole step.
func fuzzRange(in *fuzzBytes, rows uint64, chunkRows int) (lo, hi uint64) {
	pick := func() uint64 { return uint64(in.next()<<8|in.next()) % (rows + 1) }
	switch in.next() % 5 {
	case 0:
		lo = pick()
		return lo, lo
	case 1:
		lo = pick() % rows
		return lo, lo + 1
	case 2:
		lo, hi = pick(), pick()
	case 3:
		c := uint64(chunkRows)
		lo, hi = min(pick()/c*c, rows), min(pick()/c*c, rows)
	default:
		return 0, rows
	}
	return min(lo, hi), max(lo, hi)
}

// repeatRows returns col with every value repeated r times.
func repeatRows(col []float64, r int) []float64 {
	out := make([]float64, 0, len(col)*r)
	for _, v := range col {
		for i := 0; i < r; i++ {
			out = append(out, v)
		}
	}
	return out
}

// clip returns the positions of sorted pos inside [lo, hi).
func clip(pos []uint64, lo, hi uint64) []uint64 {
	var out []uint64
	for _, p := range pos {
		if p >= lo && p < hi {
			out = append(out, p)
		}
	}
	return out
}

// FuzzSelectRange is the differential oracle for range selection: over a
// multi-chunk step of up to 2 037 rows, a select over [lo, hi) equals the
// whole-step select clipped to the window on each backend, and FastBit
// equals Scan. The FastBit window decodes only its own rows' bin words
// and inverts within the window, so the ! and != seeds are the ones that
// prove rows outside the window cannot leak in. A count over the window
// equals the selection's length. A step keeping the index of rows
// [clo, chi) ⊇ [lo, hi) only, as a shard does, selects and counts the
// same rows over [lo, hi) through its cut bitmaps, and over the whole
// step through a fresh decode. The seed corpus is
// testdata/fuzz/FuzzSelectRange.
func FuzzSelectRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{b: data}
		rows := uint64(1 + in.next()%97)
		chunkRows := 1 + in.next()%13
		bins := 1 + in.next()%8
		cols := fuzzColumns(in, rows)
		e := query.Canonical(fuzzExpr(in, 3))
		lo, hi := fuzzRange(in, rows, chunkRows)
		// Drawn last, so inputs from before steps could grow keep their
		// meaning: every row repeats r times — runs of equal values, so
		// bins hold fills spanning several groups — chunks grow with it,
		// and a window may start inside a run.
		r := 1 + in.next()%21
		for name, col := range cols {
			cols[name] = repeatRows(col, r)
		}
		rows, chunkRows = rows*uint64(r), chunkRows*r
		lo, hi = lo*uint64(r), hi*uint64(r)
		if d := uint64(in.next() % r); lo < hi {
			lo += d
		}
		st, index := fuzzStep(t, cols, chunkRows, bins)
		// Drawn after everything else, for the same reason: the resident
		// window of a second, cut, step.
		clo, chi := lo-min(lo, uint64(in.next())), min(rows, hi+uint64(in.next()))
		cut := cutStep(t, st, index, clo, chi)
		what := fmt.Sprintf("%d rows, chunks of %d, %q over [%d, %d)", rows, chunkRows, e, lo, hi)

		ctx := context.Background()
		backends := []Backend{Scan, FastBit}
		if slices.Contains(query.Vars(e), "c") {
			backends = backends[:1] // unindexed: an index cannot hold NaN or ±Inf
		}
		var got [][]uint64
		for _, b := range backends {
			whole, err := st.SelectCtx(ctx, e, b, 0, rows)
			if err != nil {
				t.Fatalf("%s: %v whole step: %v", what, b, err)
			}
			part, err := st.SelectCtx(ctx, e, b, lo, hi)
			if err != nil {
				t.Fatalf("%s: %v: %v", what, b, err)
			}
			if want := clip(whole, lo, hi); !reflect.DeepEqual(part, want) && len(part)+len(want) > 0 {
				t.Fatalf("%s: %v selects %v, whole step clipped is %v", what, b, part, want)
			}
			got = append(got, part)
			if n, err := st.CountIn(ctx, e, b, lo, hi); err != nil || n != uint64(len(part)) {
				t.Fatalf("%s: %v counts %d (%v), selects %d", what, b, n, err, len(part))
			}
			if b != FastBit {
				continue
			}
			for _, w := range [][2]uint64{{lo, hi}, {0, rows}} {
				sel, err := cut.SelectCtx(ctx, e, b, w[0], w[1])
				if err != nil {
					t.Fatalf("%s: index cut to [%d, %d) over [%d, %d): %v", what, clo, chi, w[0], w[1], err)
				}
				n, err := cut.CountIn(ctx, e, b, w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				if want := clip(whole, w[0], w[1]); !slices.Equal(sel, want) || n != uint64(len(want)) {
					t.Fatalf("%s: index cut to [%d, %d) over [%d, %d) selects %v and counts %d, the whole index %v",
						what, clo, chi, w[0], w[1], sel, n, want)
				}
			}
		}
		if len(got) == 2 && !reflect.DeepEqual(got[0], got[1]) && len(got[0])+len(got[1]) > 0 {
			t.Fatalf("%s: scan selects %v, fastbit %v", what, got[0], got[1])
		}
	})
}
