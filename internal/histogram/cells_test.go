package histogram

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomCounts fills n counts: all zero, a few non-zero, or most of them,
// some past a uint32.
func randomCounts(rng *rand.Rand, n int, fill string) []uint64 {
	counts := make([]uint64, n)
	if fill == "zero" {
		return counts
	}
	every := 100
	if fill == "dense" {
		every = 2
	}
	for i := range counts {
		if rng.Intn(every) == 0 {
			counts[i] = uint64(1 + rng.Intn(300))
			if rng.Intn(50) == 0 {
				counts[i] = 1<<40 + uint64(rng.Intn(9))
			}
		}
	}
	return counts
}

// split cuts counts into k dense partials that sum to them.
func split(rng *rand.Rand, counts []uint64, k int) [][]uint64 {
	parts := make([][]uint64, k)
	for j := range parts {
		parts[j] = make([]uint64, len(counts))
	}
	for i, c := range counts {
		for j := 0; j < k-1 && c > 0; j++ {
			d := uint64(rng.Int63n(int64(min(c, 1<<62)) + 1))
			parts[j][i], c = d, c-d
		}
		parts[k-1][i] = c
	}
	return parts
}

// reencode decodes a wire form and encodes what it decoded.
func reencode(dims int, enc []byte) ([]byte, error) {
	h, err := decodeWire(dims, enc)
	if err != nil {
		return nil, err
	}
	return h.AppendWire(nil)
}

// TestCellsConversions: for random dense 1D and 2D grids — empty,
// all-zero, one cell, sparse, mostly full, and 1024² — the cells form is
// the same counts: h.Cells().Dense() is h; its counts as JSON are
// encoding/json's; K partials, converted and merged, expand to the dense
// sum and write its JSON; and AppendWire → WireReader → AppendWire gives
// back the same bytes, for a lone encoding and for a sum.
func TestCellsConversions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type shape struct{ nx, ny int } // ny 0: a 1D grid of nx bins
	shapes := []shape{{0, 0}, {1, 0}, {0, 3}, {1, 1}, {1024, 1024}}
	for i := 0; i < 12; i++ {
		shapes = append(shapes, shape{1 + rng.Intn(300), 0}, shape{1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	for _, s := range shapes {
		for _, fill := range []string{"zero", "sparse", "dense"} {
			name := fmt.Sprintf("%dx%d/%s", s.nx, s.ny, fill)
			if s.ny == 0 {
				name = fmt.Sprintf("%d/%s", s.nx, fill)
			}
			t.Run(name, func(t *testing.T) {
				n := s.nx * max(s.ny, 1)
				counts := randomCounts(rng, n, fill)
				want, _ := json.Marshal(counts)
				k := 1 + rng.Intn(4)
				parts := split(rng, counts, k)
				if s.ny == 0 {
					checkCells1D(t, &Hist1D{Var: "x", Edges: UniformEdges(0, 1, s.nx)[:s.nx+1], Counts: counts}, parts, want)
				} else {
					checkCells2D(t, &Hist2D{XVar: "x", YVar: "y", XEdges: UniformEdges(0, 1, s.nx)[:s.nx+1],
						YEdges: UniformEdges(-1, 1, s.ny), Counts: counts}, parts, want)
				}
			})
		}
	}
	checkPool(t)
}

func checkCells1D(t *testing.T, h *Hist1D, parts [][]uint64, want []byte) {
	t.Helper()
	c := h.Cells()
	if got := c.Dense(); !reflect.DeepEqual(got, h) {
		t.Fatalf("Cells().Dense() = %+v, want %+v", got, h)
	}
	if got := c.AppendCountsJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendCountsJSON = %s, want %s", got, want)
	}
	sum := &Cells1D{Var: h.Var, Edges: h.Edges}
	for _, p := range parts {
		if err := sum.Merge((&Hist1D{Var: h.Var, Edges: h.Edges, Counts: p}).Cells()); err != nil {
			t.Fatal(err)
		}
	}
	if got := sum.Dense().Counts; !slices.Equal(got, h.Counts) || sum.Total() != h.Total() {
		t.Fatalf("%d partials merged expand to %v (total %d), want %v", len(parts), got, sum.Total(), h.Counts)
	}
	if got := sum.AppendCountsJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("%d partials merged write %s, want %s", len(parts), got, want)
	}
	if h.Bins() < 1 {
		return // no wire form
	}
	for _, form := range []*Cells1D{c, sum} {
		enc := must(form.AppendWire(nil))
		if got, err := reencode(1, enc); err != nil || !bytes.Equal(got, enc) {
			t.Fatalf("%d encodings: wire %x re-encodes to %x (%v)", len(form.cells), enc, got, err)
		}
	}
}

func checkCells2D(t *testing.T, h *Hist2D, parts [][]uint64, want []byte) {
	t.Helper()
	c := h.Cells()
	if got := c.Dense(); !reflect.DeepEqual(got, h) {
		t.Fatalf("Cells().Dense() differs from h (%d cells)", len(h.Counts))
	}
	if got := c.AppendCountsJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendCountsJSON differs from encoding/json (%d cells)", len(h.Counts))
	}
	sum := &Cells2D{XVar: h.XVar, YVar: h.YVar, XEdges: h.XEdges, YEdges: h.YEdges}
	for _, p := range parts {
		if err := sum.Merge((&Hist2D{XVar: h.XVar, YVar: h.YVar, XEdges: h.XEdges, YEdges: h.YEdges, Counts: p}).Cells()); err != nil {
			t.Fatal(err)
		}
	}
	if got := sum.Dense().Counts; !slices.Equal(got, h.Counts) || sum.Total() != h.Total() {
		t.Fatalf("%d partials merged expand to other counts (total %d, want %d)", len(parts), sum.Total(), h.Total())
	}
	if got := sum.AppendCountsJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("%d partials merged write other JSON", len(parts))
	}
	if h.XBins() < 1 {
		return // no wire form
	}
	for _, form := range []*Cells2D{c, sum} {
		enc := must(form.AppendWire(nil))
		if got, err := reencode(2, enc); err != nil || !bytes.Equal(got, enc) {
			t.Fatalf("%d encodings: the wire form does not re-encode to itself (%v)", len(form.cells), err)
		}
	}
}
