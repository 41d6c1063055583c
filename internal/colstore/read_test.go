package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// testChunkRows is the chunk size of the read tests' files. It is fixed,
// so that their row counts and chunk arithmetic do not follow
// DefaultChunkRows, and no larger than it, so that every chunk read
// takes a free-listed buffer.
const testChunkRows = 1 << 12

// writeColumns writes a step file of rows rows in chunks of chunkRows (0
// for the default): one float64 column per name, plus an int64 "id"
// column, with values drawn from seed. It returns the path and what was
// written, by column.
func writeColumns(tb testing.TB, rows, chunkRows int, names []string, seed int64) (string, map[string][]float64) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "step.lwc")
	w, err := NewWriter(path, uint64(rows), chunkRows)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	want := map[string][]float64{}
	for _, name := range names {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 1e10
		}
		if err := w.AddFloat64(name, vals); err != nil {
			tb.Fatal(err)
		}
		want[name] = vals
	}
	ids := make([]int64, rows)
	want["id"] = make([]float64, rows)
	for i := range ids {
		ids[i] = rng.Int63n(MaxExactInt)
		want["id"][i] = float64(ids[i])
	}
	if err := w.AddInt64("id", ids); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return path, want
}

// scattered returns k sorted distinct positions spread over [0, rows).
func scattered(tb testing.TB, rng *rand.Rand, k, rows int) []uint64 {
	tb.Helper()
	if k > rows {
		tb.Fatalf("scattered: %d distinct positions asked of %d rows", k, rows)
	}
	seen := map[uint64]bool{}
	for len(seen) < k {
		seen[uint64(rng.Intn(rows))] = true
	}
	pos := make([]uint64, 0, k)
	for p := range seen {
		pos = append(pos, p)
	}
	slices.Sort(pos)
	return pos
}

func openTB(tb testing.TB, path string) *File {
	tb.Helper()
	f, err := Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	return f
}

// TestReadsAllocateOnlyTheAnswer: once the free list is warm, a gather of
// k positions allocates its k answers and a range read its hi-lo answers,
// whatever the number of chunks they read — no per-chunk buffer. That
// holds for files of small chunks and for files of 64 Ki-row chunks, the
// writer's default before 8 Ki.
func TestReadsAllocateOnlyTheAnswer(t *testing.T) {
	for _, chunkRows := range []int{testChunkRows, 1 << 16} {
		t.Run(fmt.Sprint(chunkRows), func(t *testing.T) { readsAllocateOnlyTheAnswer(t, chunkRows) })
	}
}

func readsAllocateOnlyTheAnswer(t *testing.T, chunkRows int) {
	// 8·rows bytes is a whole number of 8 KiB pages, so the answers'
	// allocations round up by less than the slack allowed below.
	const rows = 153_600
	path, _ := writeColumns(t, rows, chunkRows, []string{"px"}, 1)
	f := openTB(t, path)
	pos := scattered(t, rand.New(rand.NewSource(2)), 1000, rows)
	const lo, hi = 1000, rows - 77 // touches every chunk
	read := func() {
		if _, err := f.ReadFloat64At("px", pos); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAsFloat64RangeCost("px", lo, hi, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the free list from empty: a list left holding buffers too
	// small for these chunks gives them up one chunk read at a time.
	for len(freeBufs) > 0 {
		<-freeBufs
	}
	read()

	// With the collector off, no GC cycle — nor the runtime's own
	// allocations after one — lands inside a measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	allocated := func(fn func() error) uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	for _, col := range []string{"px", "id"} {
		got := allocated(func() error { _, err := f.ReadFloat64AtCost(col, pos, nil); return err })
		if limit := uint64(8*len(pos) + 1024); got > limit {
			t.Errorf("gather of %d %s values allocated %d B, want ≤ %d", len(pos), col, got, limit)
		}
		got = allocated(func() error { _, err := f.ReadAsFloat64RangeCost(col, lo, hi, nil); return err })
		if limit := uint64(8*(hi-lo) + 1024); got > limit {
			t.Errorf("range read of %d %s values allocated %d B, want ≤ %d", hi-lo, col, got, limit)
		}
	}
	// A visit keeps no values: one batch, however many positions.
	many := scattered(t, rand.New(rand.NewSource(3)), 20000, rows)
	for _, col := range []string{"px", "id"} {
		got := allocated(func() error {
			return f.VisitFloat64AtCost(col, many, nil, func([]uint64, []float64) error { return nil })
		})
		if limit := uint64(8*gatherBatch + 1024); got > limit {
			t.Errorf("visit of %d %s values allocated %d B, want ≤ %d", len(many), col, got, limit)
		}
	}
	got := allocated(func() error { _, err := f.ReadInt64("id"); return err })
	if limit := uint64(8*rows + 1024); got > limit {
		t.Errorf("ReadInt64 of %d values allocated %d B, want ≤ %d", rows, got, limit)
	}
}

// TestVisitMatchesGather: VisitFloat64AtCost hands on, in order, the
// values ReadFloat64AtCost returns, in batches of at most gatherBatch
// positions that each lie in one chunk, charges cost the same, stops at
// fn's error, and refuses what the gather refuses.
func TestVisitMatchesGather(t *testing.T) {
	const rows = 50_000
	path, _ := writeColumns(t, rows, testChunkRows, []string{"px"}, 8)
	f := openTB(t, path)
	rng := rand.New(rand.NewSource(9))
	for _, col := range []string{"px", "id"} {
		for _, k := range []int{0, 1, 700, 5000, 40000} {
			pos := scattered(t, rng, k, rows)
			var gcost, vcost obs.Cost
			want, err := f.ReadFloat64AtCost(col, pos, &gcost)
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			var seen []uint64
			err = f.VisitFloat64AtCost(col, pos, &vcost, func(p []uint64, v []float64) error {
				if len(p) != len(v) || len(p) == 0 || len(p) > gatherBatch {
					t.Fatalf("%s k=%d: batch of %d positions, %d values", col, k, len(p), len(v))
				}
				if p[0]/testChunkRows != p[len(p)-1]/testChunkRows {
					t.Fatalf("%s k=%d: batch spans rows %d..%d", col, k, p[0], p[len(p)-1])
				}
				seen = append(seen, p...)
				got = append(got, v...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(seen, pos) || !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("%s k=%d: visit differs from the gather", col, k)
			}
			if c := vcost.Snapshot(); c != gcost.Snapshot() || c.ValuesRead != uint64(k) {
				t.Fatalf("%s k=%d: visit charged %+v, gather %+v", col, k, c, gcost.Snapshot())
			}
		}
	}
	stop := fmt.Errorf("stop")
	calls := 0
	err := f.VisitFloat64AtCost("px", scattered(t, rng, 3000, rows), nil, func([]uint64, []float64) error { calls++; return stop })
	if err != stop || calls != 1 {
		t.Fatalf("fn's error: got %v after %d calls", err, calls)
	}
	for what, pos := range map[string][]uint64{"unsorted": {5, 3}, "out of range": {1, rows}} {
		if err := f.VisitFloat64AtCost("px", pos, nil, func([]uint64, []float64) error { return nil }); err == nil {
			t.Errorf("%s positions accepted", what)
		}
	}
	if err := f.VisitFloat64AtCost("nope", nil, nil, func([]uint64, []float64) error { return nil }); err == nil {
		t.Error("unknown column accepted")
	}
}

// TestExactInt: an identifier is an integer within ±MaxExactInt; a
// fraction, a value past the mantissa, NaN and ±Inf are refused.
func TestExactInt(t *testing.T) {
	for _, v := range []float64{0, 1, -7, MaxExactInt, -MaxExactInt} {
		if id, err := ExactInt(v); err != nil || float64(id) != v {
			t.Errorf("ExactInt(%g) = %d, %v", v, id, err)
		}
	}
	for _, v := range []float64{1.5, -0.25, MaxExactInt + 2, -MaxExactInt - 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if id, err := ExactInt(v); err == nil {
			t.Errorf("ExactInt(%g) = %d, want an error", v, id)
		}
	}
}

// TestCorruptionDetectedAfterCleanRead: a chunk that read clean once is
// read from the file and checked again the next time — a byte flipped on
// disk in between fails the read — and the failed read leaves nothing in
// the free list that a later read of another column could see.
func TestCorruptionDetectedAfterCleanRead(t *testing.T) {
	const rows = 2*testChunkRows + 500
	path, want := writeColumns(t, rows, testChunkRows, []string{"px", "py"}, 3)
	f := openTB(t, path)
	got, err := f.ReadFloat64("px")
	if err != nil || !slices.Equal(got, want["px"]) {
		t.Fatalf("clean read: err %v, equal %v", err, slices.Equal(got, want["px"]))
	}

	// px's first chunk starts right after the 8-byte header.
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte{0x5a}, 8+8*123); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for what, read := range map[string]func() error{
		"ReadFloat64":    func() error { _, err := f.ReadFloat64("px"); return err },
		"range read":     func() error { _, err := f.ReadAsFloat64RangeCost("px", 100, 200, nil); return err },
		"gather":         func() error { _, err := f.ReadFloat64At("px", []uint64{123}); return err },
		"repeated range": func() error { _, err := f.ReadAsFloat64RangeCost("px", 0, rows, nil); return err },
	} {
		if err := read(); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
			t.Fatalf("%s after corruption: err = %v, want a CRC mismatch", what, err)
		}
	}
	// Chunks the flip did not touch still read, and so does every other
	// column, through the buffers the failed reads handed back.
	if got, err := f.ReadAsFloat64RangeCost("px", testChunkRows, rows, nil); err != nil || !slices.Equal(got, want["px"][testChunkRows:]) {
		t.Fatalf("untouched chunks of px: err %v", err)
	}
	for _, col := range []string{"py", "id"} {
		got, err := f.ReadAsFloat64(col)
		if err != nil || !slices.Equal(got, want[col]) {
			t.Fatalf("%s after a failed read of px: err %v, equal %v", col, err, slices.Equal(got, want[col]))
		}
	}
}

// TestConcurrentReaders: eight goroutines gather and range-read different
// columns of one File at once, sharing the free list; every answer equals
// the single-threaded decode. Run under -race.
func TestConcurrentReaders(t *testing.T) {
	const rows = 2*testChunkRows + 321
	names := make([]string, 7)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	path, want := writeColumns(t, rows, testChunkRows, names, 4)
	f := openTB(t, path)
	cols := append(names, "id")
	single := map[string][]float64{}
	for _, col := range cols {
		vals, err := f.ReadAsFloat64(col)
		if err != nil || !slices.Equal(vals, want[col]) {
			t.Fatalf("single-threaded %s: err %v", col, err)
		}
		single[col] = vals
	}

	var wg sync.WaitGroup
	for g, col := range cols {
		wg.Add(1)
		go func(g int, col string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 6; i++ {
				pos := scattered(t, rng, 1+rng.Intn(2000), rows)
				vals, err := f.ReadFloat64At(col, pos)
				if err != nil {
					t.Error(err)
					return
				}
				for j, p := range pos {
					if math.Float64bits(vals[j]) != math.Float64bits(single[col][p]) {
						t.Errorf("%s gather: row %d = %v, want %v", col, p, vals[j], single[col][p])
						return
					}
				}
				lo := rng.Intn(rows)
				hi := lo + rng.Intn(rows-lo+1)
				got, err := f.ReadAsFloat64RangeCost(col, uint64(lo), uint64(hi), nil)
				if err != nil || !slices.Equal(got, single[col][lo:hi]) {
					t.Errorf("%s range [%d, %d): err %v", col, lo, hi, err)
					return
				}
			}
		}(g, col)
	}
	wg.Wait()
}

// benchRows is one D12-sized step column: 302 000 rows, 37 default-sized
// chunks.
const benchRows = 302000

// BenchmarkGather gathers 1 000 scattered positions of one column, the
// access of a candidate check or a selection's column gather.
func BenchmarkGather(b *testing.B) {
	path, _ := writeColumns(b, benchRows, 0, []string{"px"}, 5)
	f := openTB(b, path)
	pos := scattered(b, rand.New(rand.NewSource(6)), 1000, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadFloat64At("px", pos); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRange reads one whole column, the access of a scan or an
// unconditional histogram.
func BenchmarkReadRange(b *testing.B) {
	path, _ := writeColumns(b, benchRows, 0, []string{"px"}, 7)
	f := openTB(b, path)
	b.ReportAllocs()
	b.SetBytes(8 * benchRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.ReadAsFloat64RangeCost("px", 0, benchRows, nil); err != nil {
			b.Fatal(err)
		}
	}
}
