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
// and values outside the edges included, binning into the cells form —
// straight from cell indices, and through a pooled grid — writes the same
// wire bytes as binning into dense counts, and its Dense expansion and
// Total equal Compute2DCtx's; so does the empty input.
func TestCellsFormMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for trial := 0; trial < 300; trial++ {
		nx, ny := 1+rng.Intn(40), 1+rng.Intn(40)
		if trial%10 == 0 {
			nx, ny = 256, 256
		}
		if trial%100 == 1 { // two 10-bit radix passes
			nx, ny = 1024, 1024
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
		var cells *Cells2D
		for _, sparse := range []bool{true, false} {
			if cells, err = compute2D(ctx, "x", "y", xs, ys, xe, ye, sparse); err != nil {
				t.Fatal(err)
			}
			if len(cells.cells) != 1 {
				t.Fatalf("trial %d: binning (sparse %v) made %d encodings", trial, sparse, len(cells.cells))
			}
			if a, b := must(dense.Cells().AppendWire(nil)), must(cells.AppendWire(nil)); !bytes.Equal(a, b) {
				t.Fatalf("trial %d (%d×%d, %d values, sparse %v): wire bytes differ\ndense % x\ncells % x", trial, nx, ny, n, sparse, a, b)
			}
			if got := cells.Dense(); !slices.Equal(got.Counts, dense.Counts) || cells.Total() != dense.Total() {
				t.Fatalf("trial %d: Dense() or Total of the cells form (sparse %v) differs from Compute2DCtx", trial, sparse)
			}
		}
		merged := dense.Cells()
		if err := merged.Merge(cells); err != nil {
			t.Fatal(err)
		}
		for i, c := range merged.Dense().Counts {
			if c != 2*dense.Counts[i] {
				t.Fatalf("trial %d: merging the cells form added %d to cell %d, want %d", trial, c-dense.Counts[i], i, dense.Counts[i])
			}
		}
		if got, err := Partial2DCtx(ctx, "x", "y", xs, ys, xe, ye); err != nil || !slices.Equal(got.Dense().Counts, dense.Counts) {
			t.Fatalf("trial %d: Partial2DCtx of %d values on %d cells differs from Compute2DCtx (%v)", trial, n, nx*ny, err)
		}
	}
}

// TestCountBytes: the cells form is charged the bytes its encodings
// hold, binned straight into it or converted from a dense 256² grid of
// 8 bytes a cell, and a merge the bytes of both.
func TestCountBytes(t *testing.T) {
	e := UniformEdges(0, 1, 256)
	xs := []float64{0.1, 0.1, 0.5, 0.9}
	dense, err := Compute2DCtx(context.Background(), "x", "y", xs, xs, e, e)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Partial2DCtx(context.Background(), "x", "y", xs, xs, e, e)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Cells2D{"binned": sparse, "converted": dense.Cells()} {
		enc := must(h.AppendWire(nil))
		if n := len(h.cells[0].b); h.CountBytes() < n || h.CountBytes() > 2*n+32 || h.CountBytes() >= len(enc) {
			t.Fatalf("%s: cells form of %d bytes charged %d", name, n, h.CountBytes())
		}
	}
	sum := dense.Cells()
	if err := sum.Merge(sparse); err != nil || sum.CountBytes() != dense.Cells().CountBytes()+sparse.CountBytes() {
		t.Fatalf("a merge of two encodings charged %d bytes (%v)", sum.CountBytes(), err)
	}
}

// BenchmarkCompute2D bins n uniform random pairs into a partial ready to
// send, through the pooled grid ("dense": bin into it, then encode and
// clear it) against straight into the cells form ("cells": sort and
// run-length encode the cell indices), then AppendWire's copy of the
// encoding. sparseDivisor is set from it.
func BenchmarkCompute2D(b *testing.B) {
	ctx := context.Background()
	for _, bins := range []int{256, 512, 1024} {
		e := UniformEdges(0, 1, bins)
		for _, n := range []int{256, 4096, 16384, 65536, 100000, 262144} {
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

// compute2D is Partial2DCtx with the path forced: the pairs' sorted cell
// indices when cellIndices is set, else the pooled grid.
func compute2D(ctx context.Context, xvar, yvar string, xs, ys []float64, xedges, yedges []float64, cellIndices bool) (*Cells2D, error) {
	path := pooledGrid
	if cellIndices {
		path = sortedCells
	}
	b, err := newBinner2D(xvar, yvar, xedges, yedges, uint64(len(xs)), path)
	if err != nil {
		return nil, err
	}
	return b.oneBatch(ctx, xs, ys)
}
