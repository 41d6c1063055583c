package fastbit

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/query"
	"repro/internal/scan"
)

func TestStepIndexSerializationRoundTrip(t *testing.T) {
	si, mem, ids := buildTestStep(t, 3000, 38, IndexOptions{Bins: 24})
	var buf bytes.Buffer
	if _, err := si.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ls, err := loadAll(t, filepath.Join(t.TempDir(), "step.idx"), buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ls.N() != si.N || ls.IDVar() != "id" || !ls.dir.hasID {
		t.Fatalf("round trip meta: N %d, id var %q, has id %v", ls.N(), ls.IDVar(), ls.dir.hasID)
	}
	if len(ls.Columns()) != len(si.Columns) {
		t.Fatalf("column count %d vs %d", len(ls.Columns()), len(si.Columns))
	}
	// Same query answers through both.
	e := query.MustParse("px > 1e9 && y > 0")
	lev, sev := ls.Evaluator(mem), si.Evaluator(mem)
	got, err := lev.SelectCtx(context.Background(), e, 0, lev.N)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sev.SelectCtx(context.Background(), e, 0, sev.N)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("deserialized index: %d hits vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hit %d differs", i)
		}
	}
	// ID index survived.
	id, err := ls.IDIndex()
	if err != nil {
		t.Fatal(err)
	}
	p1 := si.ID.Lookup([]int64{ids[5]})
	p2 := id.Lookup([]int64{ids[5]})
	if len(p1) != len(p2) || p1[0] != p2[0] {
		t.Fatalf("ID lookup differs after round trip")
	}
	if ls.IndexBytesRead() <= 0 {
		t.Fatal("loading every section read no bytes")
	}
}

func TestStepIndexFileRoundTrip(t *testing.T) {
	si, _, _ := buildTestStep(t, 500, 39, IndexOptions{Bins: 8})
	path := t.TempDir() + "/step.idx"
	if err := si.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	ls, err := loadAll(t, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ls.N() != si.N {
		t.Fatalf("N = %d, want %d", ls.N(), si.N)
	}
	if _, err := loadAll(t, path+".missing", nil); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestReadStepIndexRejectsGarbage: reading an index rejects a wrong magic,
// an empty file and an unknown version.
func TestReadStepIndexRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "step.idx")
	if _, err := loadAll(t, path, []byte("nope")); err == nil {
		t.Fatal("garbage magic accepted")
	}
	if _, err := loadAll(t, path, []byte{}); err == nil {
		t.Fatal("empty file accepted")
	}
	// Valid magic, bad version.
	var buf bytes.Buffer
	buf.Write(indexMagic[:])
	buf.Write([]byte{99, 0, 0, 0})
	if _, err := loadAll(t, path, buf.Bytes()); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestWAHSpaceAdvantageOnIndexBitmaps(t *testing.T) {
	// Index bitmaps are sparse (each row sets one bit across all bins), so
	// WAH compression should keep the whole index well under the
	// uncompressed equivalent of bins × N bits.
	si, _, _ := buildTestStep(t, 50000, 40, IndexOptions{Bins: 256})
	ix := si.Columns["px"]
	uncompressed := ix.Bins() * int(ix.N) / 8
	if ix.SizeBytes() >= uncompressed/4 {
		t.Fatalf("index %d bytes, uncompressed equivalent %d — WAH not earning its keep",
			ix.SizeBytes(), uncompressed)
	}
}

func TestHistogram1DFromBitmapsMatchesScan(t *testing.T) {
	si, mem, _ := buildTestStep(t, 6000, 41, IndexOptions{Bins: 24})
	ev := si.Evaluator(mem)
	cond := query.MustParse("y > 0")
	got, err := ev.Histogram1DFromBitmapsCtx(context.Background(), cond, "px")
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.Histogram1DCtx(context.Background(), scanColumns(mem), "px", cond, got.Edges)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bin %d: %d vs %d", i, got.Counts[i], want.Counts[i])
		}
	}
	// Unconditional comes straight from bin counts.
	un, err := ev.Histogram1DFromBitmapsCtx(context.Background(), nil, "px")
	if err != nil {
		t.Fatal(err)
	}
	if un.Total() != si.N {
		t.Fatalf("unconditional total = %d, want %d", un.Total(), si.N)
	}
	if _, err := ev.Histogram1DFromBitmapsCtx(context.Background(), nil, "nope"); err == nil {
		t.Fatal("unknown variable accepted")
	}
	if _, err := ev.Histogram1DFromBitmapsCtx(context.Background(), query.MustParse("zz > 0"), "px"); err == nil {
		t.Fatal("bad condition accepted")
	}
}

func TestHistogram2DFromBitmapsMatchesScan(t *testing.T) {
	si, mem, _ := buildTestStep(t, 4000, 42, IndexOptions{Bins: 16})
	ev := si.Evaluator(mem)
	for _, cond := range []query.Expr{nil, query.MustParse("y > 0")} {
		got, err := ev.Histogram2DFromBitmapsCtx(context.Background(), cond, "x", "px")
		if err != nil {
			t.Fatal(err)
		}
		want, err := scan.ConditionalHistogram2DCtx(context.Background(), scanColumns(mem), "x", "px", cond, got.XEdges, got.YEdges)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Counts {
			if got.Counts[i] != want.Counts[i] {
				t.Fatalf("cond=%v bin %d: %d vs %d", cond, i, got.Counts[i], want.Counts[i])
			}
		}
	}
	if _, err := ev.Histogram2DFromBitmapsCtx(context.Background(), nil, "nope", "px"); err == nil {
		t.Fatal("unknown x accepted")
	}
	if _, err := ev.Histogram2DFromBitmapsCtx(context.Background(), nil, "x", "nope"); err == nil {
		t.Fatal("unknown y accepted")
	}
	if _, err := ev.Histogram2DFromBitmapsCtx(context.Background(), query.MustParse("zz > 0"), "x", "px"); err == nil {
		t.Fatal("bad condition accepted")
	}
}

// TestHistogram2DFromBitmapsEitherAxis: a 2D index-only histogram counts
// one axis's bins against row sets of the other's, whichever axis holds
// fewer bitmap words; with a column that follows row order (few words
// per bin) against one scattered over the rows, both axis orders match
// the scan.
func TestHistogram2DFromBitmapsEitherAxis(t *testing.T) {
	const rows = 5000
	rng := rand.New(rand.NewSource(45))
	cols := map[string][]float64{"scattered": make([]float64, rows), "sorted": make([]float64, rows)}
	for i := 0; i < rows; i++ {
		cols["scattered"][i] = rng.NormFloat64()
		cols["sorted"][i] = float64(i) + 20*rng.NormFloat64()
	}
	si, err := BuildStepIndex(cols, nil, "", IndexOptions{Bins: 12})
	if err != nil {
		t.Fatal(err)
	}
	if si.Columns["sorted"].SizeBytes()*2 > si.Columns["scattered"].SizeBytes() {
		t.Fatalf("sorted column's index %d B is not well under the scattered one's %d B",
			si.Columns["sorted"].SizeBytes(), si.Columns["scattered"].SizeBytes())
	}
	ev := si.Evaluator(MemReader(cols))
	for _, xy := range [][2]string{{"scattered", "sorted"}, {"sorted", "scattered"}} {
		for _, cond := range []query.Expr{nil, query.MustParse("scattered > 0.3")} {
			got, err := ev.Histogram2DFromBitmapsCtx(context.Background(), cond, xy[0], xy[1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := scan.ConditionalHistogram2DCtx(context.Background(), scan.Columns(cols), xy[0], xy[1], cond, got.XEdges, got.YEdges)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Counts, want.Counts) || got.Total() == 0 {
				t.Fatalf("%v cond=%v: counts differ from the scan (total %d vs %d)", xy, cond, got.Total(), want.Total())
			}
		}
	}
}
