package histogram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Limits on histogram resolution: the bins of a 1D histogram and the bins
// per axis of a 2D one. Requests are checked against them and the wire
// decoder refuses anything larger, so neither a request nor a reply can
// declare a grid the system would not compute.
const (
	MaxBins1D = 1 << 20
	MaxBins2D = 4096 // per axis
)

// The compact count encoding is a histogram's counts as they cross the
// wire and are checksummed: the cell count, then one (gap, count) pair per
// non-zero cell in ascending cell order, every number a minimal uvarint,
// to the end of the encoding. A gap is the distance from the previous
// non-zero cell, the first measured from cell -1, so every gap is ≥ 1.
// The encoding is canonical: a given set of counts has exactly one.
//
// A histogram decoded from the wire keeps this validated encoding instead
// of dense Counts (Counts is nil), so it costs what it holds, not the size
// of its grid. Merge adds it into a dense histogram in O(non-zero), and
// Clone or Dense expand it; it re-encodes to the bytes it came from.

// wireHead is what GobEncode reserves beyond the names and edges: their
// lengths, and one block of cells, all a selective partial needs.
const wireHead = 32 + cellBlock

// cellBlock is the size of the blocks writeCells writes.
const cellBlock = 4096

// writeCells writes the compact encoding of dense counts to w in blocks of
// about 4 KiB, so checksumming a large grid never materializes it.
func writeCells(w io.Writer, counts []uint64) error {
	buf := binary.AppendUvarint(make([]byte, 0, cellBlock+3*binary.MaxVarintLen64), uint64(len(counts)))
	prev := -1
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if len(buf) >= cellBlock {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = binary.AppendUvarint(buf, uint64(i-prev))
		buf = binary.AppendUvarint(buf, c)
		prev = i
	}
	_, err := w.Write(buf)
	return err
}

// addCells adds the cells of a validated compact encoding into dst, which
// has its cell count.
func addCells(dst []uint64, enc []byte) {
	_, n := binary.Uvarint(enc)
	enc = enc[n:]
	for i := -1; len(enc) > 0; {
		gap, n := binary.Uvarint(enc)
		enc = enc[n:]
		c, n := binary.Uvarint(enc)
		enc = enc[n:]
		i += int(gap)
		dst[i] += c
	}
}

// WriteCounts writes the compact encoding of h's counts to w.
func (h *Hist1D) WriteCounts(w io.Writer) error { return writeCounts(w, h.Counts, h.cells) }

// WriteCounts writes the compact encoding of h's counts to w.
func (h *Hist2D) WriteCounts(w io.Writer) error { return writeCounts(w, h.Counts, h.cells) }

// writeCounts writes a decoded partial's cells as they are, or encodes
// dense counts.
func writeCounts(w io.Writer, counts []uint64, cells []byte) error {
	if cells != nil {
		_, err := w.Write(cells)
		return err
	}
	return writeCells(w, counts)
}

// GobEncode writes h as its variable name, its edges (as IEEE-754 bits)
// and the compact encoding of its counts.
func (h *Hist1D) GobEncode() ([]byte, error) {
	bins := len(h.Edges) - 1
	if bins < 1 || bins > MaxBins1D || h.cells == nil && len(h.Counts) != bins {
		return nil, fmt.Errorf("histogram: encode 1d: %d edges, %d counts", len(h.Edges), len(h.Counts))
	}
	b := appendString(make([]byte, 0, wireHead+len(h.Var)+8*len(h.Edges)), h.Var)
	buf := bytes.NewBuffer(appendFloats(b, h.Edges))
	err := h.WriteCounts(buf)
	return buf.Bytes(), err
}

// GobDecode reads what GobEncode writes, validating all of it. The counts
// stay in their compact encoding.
func (h *Hist1D) GobDecode(data []byte) error {
	r := wireReader{b: data}
	name := r.str()
	edges := r.edges(MaxBins1D)
	cells := r.cells(len(edges) - 1)
	if r.err != nil {
		return fmt.Errorf("histogram: decode 1d: %w", r.err)
	}
	*h = Hist1D{Var: name, Edges: edges, cells: cells}
	return nil
}

// GobEncode writes h as its variable names, its X and Y edges (as IEEE-754
// bits) and the compact encoding of its counts.
func (h *Hist2D) GobEncode() ([]byte, error) {
	nx, ny := len(h.XEdges)-1, len(h.YEdges)-1
	if nx < 1 || nx > MaxBins2D || ny < 1 || ny > MaxBins2D || h.cells == nil && len(h.Counts) != nx*ny {
		return nil, fmt.Errorf("histogram: encode 2d: %d×%d edges, %d counts", len(h.XEdges), len(h.YEdges), len(h.Counts))
	}
	b := appendString(make([]byte, 0, wireHead+len(h.XVar)+len(h.YVar)+8*(len(h.XEdges)+len(h.YEdges))), h.XVar)
	b = appendString(b, h.YVar)
	b = appendFloats(b, h.XEdges)
	buf := bytes.NewBuffer(appendFloats(b, h.YEdges))
	err := h.WriteCounts(buf)
	return buf.Bytes(), err
}

// GobDecode reads what GobEncode writes, validating all of it. The counts
// stay in their compact encoding.
func (h *Hist2D) GobDecode(data []byte) error {
	r := wireReader{b: data}
	xvar, yvar := r.str(), r.str()
	xedges := r.edges(MaxBins2D)
	yedges := r.edges(MaxBins2D)
	cells := r.cells((len(xedges) - 1) * (len(yedges) - 1))
	if r.err != nil {
		return fmt.Errorf("histogram: decode 2d: %w", r.err)
	}
	*h = Hist2D{XVar: xvar, YVar: yvar, XEdges: xedges, YEdges: yedges, cells: cells}
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloats(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// wireReader consumes a wire encoding front to back. The first failure
// sticks in err: every later read returns a zero value.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("malformed: "+format, args...)
	}
}

// uvarint reads one minimal uvarint.
func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail("string of %d bytes, %d left", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// edges reads the edges of an axis of 1..maxBins bins; the payload must
// hold them before they are allocated.
func (r *wireReader) edges(maxBins int) []float64 {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n < 2 || n > uint64(maxBins)+1 {
		r.fail("%d edges, want 2..%d", n, maxBins+1)
		return nil
	}
	if n > uint64(len(r.b))/8 {
		r.fail("%d edges, %d bytes left", n, len(r.b))
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*n:]
	return vs
}

// cells validates the compact count encoding of n cells that ends the
// payload and returns a copy of it: the cell count must be n, and the
// non-zero cells strictly ascending, inside the grid and non-zero, with no
// byte left over (a trailing byte is an incomplete pair).
func (r *wireReader) cells(n int) []byte {
	if r.err != nil {
		return nil
	}
	start := r.b
	if got := r.uvarint(); r.err == nil && got != uint64(n) {
		r.fail("%d cells, want %d", got, n)
		return nil
	}
	// The per-cell loop reads its uvarints inline: it is the frontend's
	// cost per non-zero cell of every partial.
	b := r.b
	next := uint64(0) // the lowest index the next cell may take
	for k := 0; len(b) > 0; k++ {
		gap, n1 := binary.Uvarint(b)
		if n1 <= 0 || n1 > 1 && b[n1-1] == 0 {
			r.fail("cell %d: bad gap uvarint", k)
			return nil
		}
		c, n2 := binary.Uvarint(b[n1:])
		if n2 <= 0 || n2 > 1 && b[n1+n2-1] == 0 {
			r.fail("cell %d: bad count uvarint", k)
			return nil
		}
		switch {
		case gap == 0 || gap > uint64(n)-next:
			r.fail("cell %d: gap %d after index %d of %d", k, gap, int64(next)-1, n)
			return nil
		case c == 0:
			r.fail("cell %d: zero count", k)
			return nil
		}
		next += gap
		b = b[n1+n2:]
	}
	r.b = b
	return slices.Clone(start[:len(start)-len(r.b)])
}
