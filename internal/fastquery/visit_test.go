package fastquery

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/fastbit"
	"repro/internal/histogram"
	"repro/internal/scan"
)

// visitRows is the step size of the visit tests: 200 chunks of the 1000
// rows writeStep writes.
const visitRows = 200_000

// visitStep writes a step whose columns stress the edge resolution: "px"
// and "y" plain, "x" with NaN among its values, "z" non-negative with a
// +0 in its first chunk and a -0 in a later one, and "nan" only NaN.
func visitStep(t *testing.T) *Step {
	t.Helper()
	rng := rand.New(rand.NewSource(44))
	cols := map[string][]float64{}
	for _, name := range []string{"px", "x", "y", "z", "nan"} {
		cols[name] = make([]float64, visitRows)
	}
	for i := 0; i < visitRows; i++ {
		cols["px"][i] = rng.NormFloat64() * 1e8
		cols["y"][i] = rng.NormFloat64() * 1e-5
		cols["x"][i] = rng.Float64() * 1e-3
		if i%997 == 0 {
			cols["x"][i] = math.NaN()
		}
		cols["z"][i] = math.Abs(rng.NormFloat64()) + 1e-3
		cols["nan"][i] = math.NaN()
	}
	cols["z"][5], cols["z"][150_321] = 0, math.Copysign(0, -1)
	return writeStep(t, cols, map[string][]float64{"px": cols["px"]}, fastbit.IndexOptions{Bins: 64})
}

// column is the oracle's read: the whole column, materialized.
func column(t *testing.T, st *Step, name string) []float64 {
	t.Helper()
	vs, err := st.file.ReadAsFloat64RangeCost(name, 0, st.Rows(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// oracleEdges resolves an axis from its whole column, as the kernels did
// before they visited: scan.MinMax, then uniform or adaptive edges.
func oracleEdges(vs []float64, lo, hi float64, has bool, bins int, b histogram.Binning, minDensity float64) []float64 {
	if !has {
		lo, hi = scan.MinMax(vs)
	}
	if b == histogram.Adaptive {
		e, err := histogram.AdaptiveEdges(vs, lo, hi, bins, minDensity)
		if err != nil {
			panic(err)
		}
		return e
	}
	return histogram.UniformEdges(lo, hi, bins)
}

func oracle2D(t *testing.T, st *Step, s histogram.Spec2D) []byte {
	t.Helper()
	xs, ys := column(t, st, s.XVar), column(t, st, s.YVar)
	xe := oracleEdges(xs, s.XLo, s.XHi, s.HasXRange(), s.XBins, s.Binning, s.MinDensity)
	ye := oracleEdges(ys, s.YLo, s.YHi, s.HasYRange(), s.YBins, s.Binning, s.MinDensity)
	h, err := histogram.Partial2DCtx(context.Background(), s.XVar, s.YVar, xs, ys, xe, ye)
	if err != nil {
		t.Fatal(err)
	}
	return wire(t, h)
}

func oracle1D(t *testing.T, st *Step, s histogram.Spec1D) []byte {
	t.Helper()
	vs := column(t, st, s.Var)
	h, err := histogram.Compute1DCtx(context.Background(), s.Var, vs, oracleEdges(vs, s.Lo, s.Hi, s.HasRange(), s.Bins, s.Binning, s.MinDensity))
	if err != nil {
		t.Fatal(err)
	}
	return wire(t, h.Cells())
}

// wire is a histogram's wire form: its edges and counts, bit for bit.
func wire(t *testing.T, h interface{ AppendWire([]byte) ([]byte, error) }) []byte {
	t.Helper()
	b, err := h.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// visitCase is one kernel over every row of a step, its answer as bytes,
// and the whole-column oracle's answer.
type visitCase struct {
	name      string
	run, want func() ([]byte, error)
}

// TestUnconditionalHistogramReadsNoColumn: over every row of a step, a 2D
// histogram with a range and without, an adaptive 1D and 2D one, a
// fragment's min/max and an unindexed column's Step.MinMax answer bit for
// bit what the kernels answered from the whole columns read, and allocate less than an eighth of one column: they
// visit the chunk buffers and keep no column. A visit that fails on a
// corrupted middle chunk, half binned, leaves the pooled grids all-zero:
// the next histogram still answers as the oracle.
func TestUnconditionalHistogramReadsNoColumn(t *testing.T) {
	st := visitStep(t)
	ctx := context.Background()
	all := Rows{All: true, Hi: visitRows}
	ranged := histogram.NewSpec2D("x", "px", 100, 100).WithXRange(0, 1e-3).WithYRange(-2e8, 2e8)
	var cases []visitCase
	hist2D := func(name string, spec histogram.Spec2D) {
		cases = append(cases, visitCase{name, func() ([]byte, error) {
			h, err := st.Histogram2DOver(ctx, all, spec)
			if err != nil {
				return nil, err
			}
			return h.AppendWire(nil)
		}, func() ([]byte, error) { return oracle2D(t, st, spec), nil }})
	}
	hist2D("ranged", ranged)
	hist2D("unranged", histogram.NewSpec2D("x", "px", 100, 100))
	hist2D("unranged-signed-zero", histogram.NewSpec2D("z", "z", 64, 64))
	hist2D("adaptive", histogram.NewSpec2D("x", "y", 64, 48).WithBinning(histogram.Adaptive))
	adaptive1D := histogram.NewSpec1D("y", 32)
	adaptive1D.Binning = histogram.Adaptive
	cases = append(cases, visitCase{"adaptive-1d", func() ([]byte, error) {
		h, err := st.Histogram1DOver(ctx, all, adaptive1D, FastBit)
		if err != nil {
			return nil, err
		}
		return h.AppendWire(nil)
	}, func() ([]byte, error) { return oracle1D(t, st, adaptive1D), nil }})
	names := []string{"px", "x", "z", "nan"}
	cases = append(cases, visitCase{"minmax", func() ([]byte, error) {
		lo, hi, n, err := st.MinMaxOver(ctx, all, names)
		return rangeBits(lo, hi, n), err
	}, func() ([]byte, error) {
		var lo, hi []float64
		for _, name := range names {
			l, h := scan.MinMax(column(t, st, name))
			lo, hi = append(lo, l), append(hi, h)
		}
		return rangeBits(lo, hi, visitRows), nil
	}})

	unindexed := []string{"x", "z", "nan"} // visitStep indexes px alone
	cases = append(cases, visitCase{"step-minmax", func() ([]byte, error) {
		var lo, hi []float64
		for _, name := range unindexed {
			l, h, err := st.MinMax(ctx, name)
			if err != nil {
				return nil, err
			}
			lo, hi = append(lo, l), append(hi, h)
		}
		return rangeBits(lo, hi, 0), nil
	}, func() ([]byte, error) {
		var lo, hi []float64
		for _, name := range unindexed {
			l, h := scan.MinMax(column(t, st, name))
			lo, hi = append(lo, l), append(hi, h)
		}
		return rangeBits(lo, hi, 0), nil
	}})

	for _, c := range cases {
		want, _ := c.want()
		got, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: answer differs from the whole-column oracle", c.name)
		}
	}

	// Warm (each case ran above), with the collector off so that no GC
	// cycle lands inside a measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	for _, c := range cases {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := c.run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if got, limit := ms.TotalAlloc-before, uint64(visitRows); got >= limit {
			t.Errorf("%s allocated %d B, want < %d, an eighth of a %d-row column", c.name, got, limit, visitRows)
		}
	}

	// A corrupted copy: one byte flipped in the middle chunk of "px",
	// the second column writeStep writes (it sorts them). The ranged histogram bins half
	// the rows into a pooled grid before it reads that chunk; the clean
	// one after it takes the same grid from the pool.
	raw, err := os.ReadFile(st.file.Path())
	if err != nil {
		t.Fatal(err)
	}
	raw[8+8*visitRows+8*visitRows/2] ^= 0x40
	bad := filepath.Join(t.TempDir(), "bad.col")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := colstore.Open(bad)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := &Step{file: f}
	defer corrupt.Close()
	for range 3 {
		if _, err := corrupt.Histogram2DOver(ctx, all, ranged); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("a histogram over a corrupted chunk: %v, want a CRC error", err)
		}
		want, _ := cases[0].want()
		if got, err := cases[0].run(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after a failed visit the histogram differs from the oracle (%v): a dirty grid went back to the pool", err)
		}
	}
}

// rangeBits is a min/max answer as bytes: each value's bits.
func rangeBits(lo, hi []float64, n uint64) []byte {
	var b []byte
	for i := range lo {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(lo[i]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(hi[i]))
	}
	return binary.LittleEndian.AppendUint64(b, n)
}
