package histogram

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Limits on histogram resolution: the bins of a 1D histogram and the bins
// per axis of a 2D one. Requests are checked against them and the wire
// decoder refuses anything larger, so neither a request nor a reply can
// declare a grid the system would not compute. A 1D partial may be the
// fine grid an adaptive axis is cut from (AdaptiveCuts), so the wire
// admits AdaptiveRefine times the 1D limit.
const (
	MaxBins1D = 1 << 20
	MaxBins2D = 4096 // per axis

	maxWireBins1D = AdaptiveRefine * MaxBins1D
)

// A histogram's wire form is its variable name(s), its edges (as IEEE-754
// bits) and the compact count encoding of its counts: the cell count, then
// one (gap, count) pair per non-zero cell in ascending cell order, then a
// zero gap ending it, every number a minimal uvarint. A gap is the
// distance from the previous non-zero cell, the first measured from cell
// -1, so every gap of a cell is ≥ 1. The encoding is canonical: a given
// set of counts has exactly one.
//
// Only the cells form, Cells1D and Cells2D, crosses the wire. A partial
// decoded from it keeps the validated encoding, so it costs what it
// holds, not the size of its grid; a merge of partials collects their
// encodings, and AppendWire writes a lone encoding as it is and the sum
// of several through one pooled grid. A decoded partial re-encodes to
// the bytes it came from.

// wireHead is what AppendWire reserves beyond the names and edges: their
// lengths, and 4 KiB of cells, all a selective partial needs. Past it
// appendGrid doubles the buffer.
const wireHead = 32 + 4096

// appendCounts appends the compact encoding of the sum of the encodings
// over a grid of n cells: a lone encoding as it is, several expanded once
// into a pooled grid. It refuses an encoding of another cell count.
func appendCounts(dst []byte, n int, cells []encoding) ([]byte, error) {
	for _, e := range cells {
		if m, _ := binary.Uvarint(e.b); m != uint64(n) {
			return nil, fmt.Errorf("histogram: encode: %d cells, want %d", m, n)
		}
	}
	if len(cells) == 1 {
		return append(dst, cells[0].b...), nil
	}
	return appendSumCells(dst, n, cells), nil
}

// AppendWire appends h's wire form to dst.
func (h *Cells1D) AppendWire(dst []byte) ([]byte, error) {
	bins := h.Bins()
	if bins < 1 || bins > maxWireBins1D {
		return nil, fmt.Errorf("histogram: encode 1d: %d edges", len(h.Edges))
	}
	dst = slices.Grow(dst, wireHead+len(h.Var)+8*len(h.Edges))
	dst = appendFloats(AppendString(dst, h.Var), h.Edges)
	return appendCounts(dst, bins, h.cells)
}

// AppendWire appends h's wire form to dst: X then Y.
func (h *Cells2D) AppendWire(dst []byte) ([]byte, error) {
	nx, ny := h.XBins(), h.YBins()
	if nx < 1 || nx > MaxBins2D || ny < 1 || ny > MaxBins2D {
		return nil, fmt.Errorf("histogram: encode 2d: %d×%d edges", len(h.XEdges), len(h.YEdges))
	}
	dst = slices.Grow(dst, wireHead+len(h.XVar)+len(h.YVar)+8*(len(h.XEdges)+len(h.YEdges)))
	dst = AppendString(AppendString(dst, h.XVar), h.YVar)
	dst = appendFloats(appendFloats(dst, h.XEdges), h.YEdges)
	return appendCounts(dst, nx*ny, h.cells)
}

// AppendString appends s as its length and its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendFloat appends v as its IEEE-754 bits, little-endian.
func AppendFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendFloats(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = AppendFloat(dst, v)
	}
	return dst
}

// WireReader consumes a wire encoding front to back, validating as it
// goes. The first failure sticks, and Close reports it; what is read after
// it is meaningless. It never panics, and it allocates only what the bytes
// left can back.
type WireReader struct {
	b   []byte
	err error
}

// NewWireReader reads b.
func NewWireReader(b []byte) *WireReader { return &WireReader{b: b} }

// Fail records a validation failure, unless one is recorded already.
func (r *WireReader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("malformed: "+format, args...)
	}
}

// Close returns the first failure, or an error when bytes are left over.
func (r *WireReader) Close() error {
	if r.err == nil && len(r.b) > 0 {
		r.Fail("%d bytes left over", len(r.b))
	}
	return r.err
}

// Uvarint reads one minimal uvarint.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if !minimal(r.b, n) {
		r.Fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Len reads the length of a list whose items take at least width bytes
// each, refusing one the bytes left cannot hold, so the list can be
// allocated before it is read.
func (r *WireReader) Len(width int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/width) {
		r.Fail("%d items of ≥ %d bytes, %d bytes left", n, width, len(r.b))
		return 0
	}
	return int(n)
}

// Str reads what AppendString writes.
func (r *WireReader) Str() string {
	n := r.Len(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Float reads what AppendFloat writes.
func (r *WireReader) Float() float64 {
	if len(r.b) < 8 {
		r.Fail("float past the end")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Cells1D reads what Cells1D.AppendWire writes; nil after a failure.
func (r *WireReader) Cells1D() *Cells1D {
	name := r.Str()
	edges := r.edges(maxWireBins1D)
	e := r.cells(len(edges) - 1)
	if r.err != nil {
		return nil
	}
	return &Cells1D{Var: name, Edges: edges, cells: []encoding{e}}
}

// Cells2D reads what Cells2D.AppendWire writes; nil after a failure.
func (r *WireReader) Cells2D() *Cells2D {
	xvar, yvar := r.Str(), r.Str()
	xedges := r.edges(MaxBins2D)
	yedges := r.edges(MaxBins2D)
	e := r.cells((len(xedges) - 1) * (len(yedges) - 1))
	if r.err != nil {
		return nil
	}
	return &Cells2D{XVar: xvar, YVar: yvar, XEdges: xedges, YEdges: yedges, cells: []encoding{e}}
}

// edges reads the edges of an axis of 1..maxBins bins.
func (r *WireReader) edges(maxBins int) []float64 {
	n := r.Len(8)
	if r.err != nil {
		return nil
	}
	if n < 2 || n > maxBins+1 {
		r.Fail("%d edges, want 2..%d", n, maxBins+1)
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.Float()
	}
	return vs
}

// cells validates the compact count encoding of n cells and returns a
// copy of it with the sum of its counts: the cell count must be n, and
// the non-zero cells strictly ascending, inside the grid and non-zero, up
// to the zero gap that ends them.
func (r *WireReader) cells(n int) encoding {
	if r.err != nil {
		return encoding{}
	}
	start := r.b
	if got := r.Uvarint(); r.err == nil && got != uint64(n) {
		r.Fail("%d cells, want %d", got, n)
		return encoding{}
	}
	// The per-cell loop reads its uvarints inline: it is the frontend's
	// cost per non-zero cell of every partial.
	total := uint64(0)
	for b, next := r.b, uint64(0); ; { // next: the lowest index the next cell may take
		gap, n1 := binary.Uvarint(b)
		if !minimal(b, n1) {
			r.Fail("bad gap uvarint after index %d", int64(next)-1)
			return encoding{}
		}
		if gap == 0 {
			r.b = b[n1:]
			return encoding{slices.Clone(start[:len(start)-len(r.b)]), total}
		}
		c, n2 := binary.Uvarint(b[n1:])
		switch {
		case !minimal(b[n1:], n2):
			r.Fail("bad count uvarint after index %d", int64(next)-1)
		case gap > uint64(n)-next:
			r.Fail("gap %d after index %d of %d", gap, int64(next)-1, n)
		case c == 0:
			r.Fail("zero count after index %d", int64(next)-1)
		}
		if r.err != nil {
			return encoding{}
		}
		next += gap
		total += c
		b = b[n1+n2:]
	}
}

// minimal reports whether binary.Uvarint read a minimal uvarint of n
// bytes from b.
func minimal(b []byte, n int) bool { return n == 1 || n > 1 && b[n-1] != 0 }
