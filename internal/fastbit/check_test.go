package fastbit

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/query"
)

// fileReader is a BatchReader over a step file, as the query layer's is.
type fileReader struct{ f *colstore.File }

func (r fileReader) ValuesAt(name string, positions []uint64) ([]float64, error) {
	return r.f.ReadFloat64At(name, positions)
}

func (r fileReader) VisitAt(name string, positions []uint64, fn func([]uint64, []float64) error) error {
	return r.f.VisitFloat64AtCost(name, positions, nil, fn)
}

// gatherReader hides its reader's VisitAt: the evaluator reads through
// ValuesAt, a slice of every candidate's value.
type gatherReader struct{ r RawReader }

func (g gatherReader) ValuesAt(name string, positions []uint64) ([]float64, error) {
	return g.r.ValuesAt(name, positions)
}

// checkChunkRows is the chunk size of the check tests' step files: fixed,
// so that their row counts do not follow colstore.DefaultChunkRows, and
// no larger than it, so that a warm chunk read allocates nothing.
const checkChunkRows = 1 << 12

// checkFixture writes rows rows of a normal px column and shuffled int64
// ids to a step file in chunks of chunkRows (0 for the default) and
// indexes px with 16 bins, so a cut inside a bin candidate-checks
// thousands of rows.
func checkFixture(tb testing.TB, rows, chunkRows int) (*StepIndex, fileReader) {
	tb.Helper()
	rng := rand.New(rand.NewSource(39))
	px := make([]float64, rows)
	ids := make([]int64, rows)
	for i, p := range rng.Perm(rows) {
		px[i] = rng.NormFloat64()
		ids[i] = int64(p) * 3
	}
	path := filepath.Join(tb.TempDir(), "step.col")
	w, err := colstore.NewWriter(path, uint64(rows), chunkRows)
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.AddFloat64("px", px); err != nil {
		tb.Fatal(err)
	}
	if err := w.AddInt64("id", ids); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	f, err := colstore.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	si, err := BuildStepIndex(map[string][]float64{"px": px}, ids, "id", IndexOptions{Bins: 16})
	if err != nil {
		tb.Fatal(err)
	}
	return si, fileReader{f}
}

// TestBatchReaderMatchesGather: candidate checks handed each chunk's
// values by VisitAt select what checks over ValuesAt's slice select, with
// the same stats, for ranges and memberships.
func TestBatchReaderMatchesGather(t *testing.T) {
	const rows = 2*checkChunkRows + 777
	si, fr := checkFixture(t, rows, checkChunkRows)
	for _, q := range []string{
		"px > 0.1234",
		"px >= -1.5 && px < 2.25",
		"px < -0.3 || px > 1.7",
		"!(px > 0.5)",
		"px in (0.5, 1.25, -2)",
	} {
		e := query.MustParse(q)
		batch, gather := si.Evaluator(fr), si.Evaluator(gatherReader{fr})
		want, err := gather.SelectCtx(context.Background(), e, 1000, rows-5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batch.SelectCtx(context.Background(), e, 1000, rows-5)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || batch.Stats != gather.Stats {
			t.Fatalf("%s: batch %d rows %+v, gather %d rows %+v", q, len(got), batch.Stats, len(want), gather.Stats)
		}
		if q == "px > 0.1234" && batch.Stats.CandidateChecks < 1000 {
			t.Fatalf("%s: only %d candidate checks", q, batch.Stats.CandidateChecks)
		}
	}
}

// TestCandidateCheckAllocatesNoValues: once the chunk buffers are warm, a
// candidate check over k candidates read through VisitAt allocates no
// 8k-byte slice of their values — what it allocates is the check through
// ValuesAt's less those 8k bytes, give or take one batch.
func TestCandidateCheckAllocatesNoValues(t *testing.T) {
	const rows = 100_000
	si, fr := checkFixture(t, rows, checkChunkRows)
	ix := si.Columns["px"]
	iv := query.Interval{Lo: 0.1234, Hi: math.Inf(1), LoOpen: true}
	check := func(raw RawValues) EvalStats {
		_, st, err := ix.EvaluateCtx(context.Background(), iv, raw, 0, ix.N)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	batch := func(pos []uint64, fn func([]uint64, []float64) error) error { return fr.VisitAt("px", pos, fn) }
	gather := Gathered(func(pos []uint64) ([]float64, error) { return fr.ValuesAt("px", pos) })
	k := check(batch).CandidateChecks // warms the chunk buffers
	if k < 10000 {
		t.Fatalf("only %d candidates", k)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	allocated := func(raw RawValues) uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		check(raw)
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	viaGather, viaBatch := allocated(gather), allocated(batch)
	if limit := viaGather - 8*k + 8*512 + 1024; viaBatch > limit {
		t.Errorf("check of %d candidates allocated %d B through VisitAt, %d through ValuesAt; want ≤ %d",
			k, viaBatch, viaGather, limit)
	}
}

// TestSelectIDsRefusesInexactIDs: an `id in` value no identifier equals
// (1.5, or one past ±2^53) matches nothing, as it does in a scan, instead
// of naming another particle. The gather side — an identifier column
// holding such a value fails ID selection — is fastquery's
// TestIdentifiersAreExact.
func TestSelectIDsRefusesInexactIDs(t *testing.T) {
	px := []float64{0, 1, 2, 3}
	si, err := BuildStepIndex(map[string][]float64{"px": px}, []int64{1, 2, 3, 4}, "id", IndexOptions{Bins: 2})
	if err != nil {
		t.Fatal(err)
	}
	ev := si.Evaluator(MemReader{"px": px, "id": {1, 2, 3, 4}})
	n, err := ev.CountIn(context.Background(), query.MustParse("id in (1.5, 3, 1e300)"), 0, ev.N)
	if err != nil || n != 1 {
		t.Fatalf("id in (1.5, 3, 1e300) counted %d (%v), want 1", n, err)
	}
}

// BenchmarkCandidateCheck times one range evaluation over 300 000 rows
// on a step file whose cut inside a 16-bin index candidate-checks ~66 000
// rows, the values read through VisitAt ("batch") or a ValuesAt slice
// ("gather"); B/op shows the slice.
func BenchmarkCandidateCheck(b *testing.B) {
	const rows = 300_000
	si, fr := checkFixture(b, rows, 0)
	ix := si.Columns["px"]
	iv := query.Interval{Lo: 0.1234, Hi: math.Inf(1), LoOpen: true}
	for _, c := range []struct {
		name string
		raw  RawValues
	}{
		{"batch", func(pos []uint64, fn func([]uint64, []float64) error) error { return fr.VisitAt("px", pos, fn) }},
		{"gather", Gathered(func(pos []uint64) ([]float64, error) { return fr.ValuesAt("px", pos) })},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var checks uint64
			for i := 0; i < b.N; i++ {
				_, st, err := ix.EvaluateCtx(context.Background(), iv, c.raw, 0, ix.N)
				if err != nil {
					b.Fatal(err)
				}
				checks = st.CandidateChecks
			}
			b.ReportMetric(float64(checks), "checks/op")
		})
	}
}
