package histogram

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestCellsFormMatchesDense: for random values over uniform edges, NaNs
// and values outside the edges included, binning straight into the cells
// form writes the same wire bytes as binning into dense counts, and its
// Dense expansion equals Compute2DCtx's counts; so does the empty input.
func TestCellsFormMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for trial := 0; trial < 300; trial++ {
		nx, ny := 1+rng.Intn(40), 1+rng.Intn(40)
		if trial%10 == 0 {
			nx, ny = 256, 256
		}
		xe, ye := UniformEdges(-1, 1, nx), UniformEdges(0, 3, ny)
		n := rng.Intn(3 * nx * ny / sparseDivisor)
		if trial%7 == 0 {
			n = 0
		}
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = -1.2+2.4*rng.Float64(), -0.3+3.6*rng.Float64()
			switch rng.Intn(20) {
			case 0:
				xs[i] = math.NaN()
			case 1:
				ys[i] = math.NaN()
			case 2: // on an edge, the top one included
				xs[i], ys[i] = xe[rng.Intn(nx+1)], ye[rng.Intn(ny+1)]
			case 3: // piled into one cell
				xs[i], ys[i] = 0.5, 1.5
			}
		}
		dense, err := Compute2DCtx(ctx, "x", "y", xs, ys, xe, ye)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := compute2D(ctx, "x", "y", xs, ys, xe, ye, true)
		if err != nil {
			t.Fatal(err)
		}
		if cells.Counts != nil || cells.cells == nil {
			t.Fatalf("trial %d: sparse binning did not produce the cells form", trial)
		}
		if a, b := must(dense.AppendWire(nil)), must(cells.AppendWire(nil)); !bytes.Equal(a, b) {
			t.Fatalf("trial %d (%d×%d, %d values): wire bytes differ\ndense % x\ncells % x", trial, nx, ny, n, a, b)
		}
		if got := cells.Dense(); !slices.Equal(got.Counts, dense.Counts) {
			t.Fatalf("trial %d: Dense() of the cells form differs from Compute2DCtx", trial)
		}
		merged := dense.Clone()
		if err := merged.Merge(cells); err != nil {
			t.Fatal(err)
		}
		for i, c := range merged.Counts {
			if c != 2*dense.Counts[i] {
				t.Fatalf("trial %d: merging the cells form added %d to cell %d, want %d", trial, c-dense.Counts[i], i, dense.Counts[i])
			}
		}
		if got, err := Partial2DCtx(ctx, "x", "y", xs, ys, xe, ye); err != nil || (got.cells != nil) != (n < nx*ny/sparseDivisor) {
			t.Fatalf("trial %d: Partial2DCtx of %d values on %d cells: cells form %v, err %v", trial, n, nx*ny, got.cells != nil, err)
		}
	}
}

// TestCountBytes: a histogram is charged the bytes its counts hold, 8 a
// cell dense and the encoding's length in the cells form.
func TestCountBytes(t *testing.T) {
	e := UniformEdges(0, 1, 256)
	xs := []float64{0.1, 0.1, 0.5, 0.9}
	dense, err := Compute2DCtx(context.Background(), "x", "y", xs, xs, e, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := dense.CountBytes(); got != 8*256*256 {
		t.Fatalf("dense 256² charged %d bytes", got)
	}
	sparse, err := Partial2DCtx(context.Background(), "x", "y", xs, xs, e, e)
	if err != nil {
		t.Fatal(err)
	}
	enc := must(sparse.AppendWire(nil))
	if got := sparse.CountBytes(); got < len(sparse.cells) || got > 2*len(sparse.cells) || got >= len(enc) {
		t.Fatalf("cells form of %d bytes charged %d", len(sparse.cells), got)
	}
}

// BenchmarkCompute2D bins n uniform random pairs into a partial ready to
// send, dense (Compute2DCtx, then AppendWire's scan of the grid) against
// the cells form (sort and run-length encode the cell indices, then
// AppendWire's copy). sparseDivisor is set from it.
func BenchmarkCompute2D(b *testing.B) {
	ctx := context.Background()
	for _, bins := range []int{256, 1024} {
		e := UniformEdges(0, 1, bins)
		for _, n := range []int{256, 4096, 16384, 65536} {
			rng := rand.New(rand.NewSource(int64(n)))
			xs, ys := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i], ys[i] = rng.Float64(), rng.Float64()
			}
			for _, form := range []string{"dense", "cells"} {
				b.Run(fmt.Sprintf("%dx%d/n=%d/%s", bins, bins, n, form), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						h, err := compute2D(ctx, "x", "y", xs, ys, e, e, form == "cells")
						if err != nil {
							b.Fatal(err)
						}
						if _, err := h.AppendWire(nil); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
