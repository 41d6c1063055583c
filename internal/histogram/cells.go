package histogram

import (
	"fmt"
	"slices"
)

// Cells1D is a one-dimensional histogram in the cells form: its counts
// are a sum of compact count encodings (see wire.go), never a grid, so it
// costs what its non-zero cells cost. It is what the serving path
// carries — a partial a kernel computed or the wire delivered, a merge of
// partials, a cached answer — and what it writes, to the wire and as
// JSON. A reader takes Dense() once, where it starts. With no encodings
// every count is zero: the answer no partial contributed to.
type Cells1D struct {
	Var   string
	Edges []float64 // len Bins+1, strictly increasing

	cells []encoding // summed
}

// Bins returns the number of bins.
func (h *Cells1D) Bins() int { return len(h.Edges) - 1 }

// Total returns the total record count across all bins.
func (h *Cells1D) Total() uint64 { return total(h.cells) }

// Merge adds o, over bit-identical edges, into h: h takes on o's
// encodings, so a merge costs what o's non-zero cells cost and never a
// grid. o is read, never changed.
func (h *Cells1D) Merge(o *Cells1D) error {
	if !sameEdges(h.Edges, o.Edges) {
		return fmt.Errorf("histogram: merge over other edges (%d vs %d)", len(h.Edges), len(o.Edges))
	}
	h.cells = append(h.cells, o.cells...)
	return nil
}

// CountBytes is what h's encodings occupy.
func (h *Cells1D) CountBytes() int { return heldBytes(h.cells) }

// AppendCountsJSON appends h's counts as encoding/json writes the []uint64
// of its Dense counts. A lone encoding is written from its bytes; a sum of
// several is expanded once into a pooled grid, written and cleared in one
// pass.
func (h *Cells1D) AppendCountsJSON(dst []byte) []byte {
	return appendCountsJSON(dst, h.cells, h.Bins())
}

// Dense returns the expansion of h, sharing nothing with it.
func (h *Cells1D) Dense() *Hist1D {
	return &Hist1D{Var: h.Var, Edges: slices.Clone(h.Edges), Counts: expanded(h.cells, h.Bins())}
}

// Cells returns h's counts encoded, the cells form a dense kernel's
// partial takes on the serving path. It shares h's edges.
func (h *Hist1D) Cells() *Cells1D {
	return &Cells1D{Var: h.Var, Edges: h.Edges, cells: []encoding{encodeGrid(h.Counts)}}
}

// Cells2D is Cells1D for a two-dimensional histogram over an (X, Y)
// variable pair; its cells are row-major, as Hist2D's counts.
type Cells2D struct {
	XVar, YVar     string
	XEdges, YEdges []float64

	cells []encoding // summed
}

// XBins returns the number of bins along X.
func (h *Cells2D) XBins() int { return len(h.XEdges) - 1 }

// YBins returns the number of bins along Y.
func (h *Cells2D) YBins() int { return len(h.YEdges) - 1 }

// Total returns the total record count across all bins.
func (h *Cells2D) Total() uint64 { return total(h.cells) }

// Merge is Cells1D.Merge for 2D histograms: both axes' edges must be bit
// for bit the same.
func (h *Cells2D) Merge(o *Cells2D) error {
	if !sameEdges(h.XEdges, o.XEdges) || !sameEdges(h.YEdges, o.YEdges) {
		return fmt.Errorf("histogram: merge over other edges (%d,%d) vs (%d,%d)",
			len(h.XEdges), len(h.YEdges), len(o.XEdges), len(o.YEdges))
	}
	h.cells = append(h.cells, o.cells...)
	return nil
}

// CountBytes is what h's encodings occupy.
func (h *Cells2D) CountBytes() int { return heldBytes(h.cells) }

// AppendCountsJSON is Cells1D.AppendCountsJSON for the row-major 2D
// counts.
func (h *Cells2D) AppendCountsJSON(dst []byte) []byte {
	return appendCountsJSON(dst, h.cells, h.XBins()*h.YBins())
}

// Dense returns the expansion of h, sharing nothing with it.
func (h *Cells2D) Dense() *Hist2D {
	return &Hist2D{
		XVar: h.XVar, YVar: h.YVar,
		XEdges: slices.Clone(h.XEdges), YEdges: slices.Clone(h.YEdges),
		Counts: expanded(h.cells, h.XBins()*h.YBins()),
	}
}

// Cells is Hist1D.Cells for a 2D histogram.
func (h *Hist2D) Cells() *Cells2D {
	return &Cells2D{XVar: h.XVar, YVar: h.YVar, XEdges: h.XEdges, YEdges: h.YEdges, cells: []encoding{encodeGrid(h.Counts)}}
}

// encoding is one validated compact count encoding and the sum of its
// counts.
type encoding struct {
	b     []byte
	total uint64
}

// encodeGrid is the encoding of dense counts.
func encodeGrid(counts []uint64) encoding {
	b, t := appendGrid(nil, counts, false)
	return encoding{b, t}
}

// total sums the encodings' counts.
func total(cells []encoding) uint64 {
	var t uint64
	for _, e := range cells {
		t += e.total
	}
	return t
}

// heldBytes is what the encodings occupy.
func heldBytes(cells []encoding) int {
	n := 0
	for _, e := range cells {
		n += cap(e.b)
	}
	return n
}

// expanded returns the dense sum of the encodings of a grid of n cells.
func expanded(cells []encoding, n int) []uint64 {
	out := make([]uint64, n)
	expand(out, cells)
	return out
}

// appendCountsJSON appends the sum of the encodings over a grid of n
// cells as encoding/json writes a []uint64: a lone encoding straight from
// its bytes, several through one pooled expansion.
func appendCountsJSON(dst []byte, cells []encoding, n int) []byte {
	switch {
	case n < 1:
		return append(dst, "[]"...)
	case len(cells) == 1:
		return appendEncodingJSON(dst, cells[0].b)
	}
	return appendSumJSON(dst, n, cells)
}
