package histogram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// uv concatenates minimal uvarints.
func uv(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// wire1 assembles a 1D payload over bins uniform bins with the given
// count encoding.
func wire1(bins int, cells ...byte) []byte {
	b := appendFloats(AppendString(nil, "x"), UniformEdges(0, 1, bins))
	return append(b, cells...)
}

// wire2 assembles a 2D payload over nx×ny uniform bins.
func wire2(nx, ny int, cells ...byte) []byte {
	b := AppendString(AppendString(nil, "x"), "px")
	b = appendFloats(appendFloats(b, UniformEdges(0, 1, nx)), UniformEdges(-1, 1, ny))
	return append(b, cells...)
}

// malformedWire is every way a payload can be refused, with the decoder
// (1 or 2 dimensions) that must refuse it.
var malformedWire = []struct {
	name string
	dims int
	data []byte
}{
	{"empty", 1, nil},
	{"empty 2d", 2, nil},
	{"more cells than the grid", 1, wire1(2, uv(2, 1, 1, 1, 1, 1, 1, 0)...)},
	{"index past the grid", 1, wire1(4, uv(4, 5, 1, 0)...)},
	{"zero gap before a cell", 1, wire1(4, uv(4, 2, 1, 0, 3)...)},
	{"zero count", 1, wire1(4, uv(4, 1, 0, 0)...)},
	{"trailing byte", 1, append(wire1(4, uv(4, 1, 3, 0)...), 7)},
	{"cell count is not the bins", 1, wire1(4, uv(5, 0)...)},
	{"no cell count", 1, wire1(4)},
	{"non-minimal uvarint", 1, wire1(4, 4, 0x81, 0x00, 1, 0)},
	{"one edge", 1, append(appendFloats(AppendString(nil, "x"), []float64{0}), uv(0)...)},
	{"1d bins over the cap", 1, append(AppendString(nil, "x"), uv(MaxBins1D+2)...)},
	{"2d bins over the cap", 2, append(AppendString(AppendString(nil, "x"), "y"), uv(MaxBins2D+2)...)},
	{"edges past the payload", 2, append(AppendString(AppendString(nil, "x"), "y"), uv(5, 0)...)},
	{"string past the payload", 1, uv(9, 'x')},
	{"2d index past the grid", 2, wire2(2, 3, uv(6, 6, 1, 1, 1, 0)...)},
	{"no end of cells", 1, wire1(4, uv(4, 1, 3)...)},
}

type wireForm interface{ AppendWire([]byte) ([]byte, error) }

// decodeWire reads one whole payload of a dims-dimensional histogram: the
// histogram and nothing after it.
func decodeWire(dims int, data []byte) (wireForm, error) {
	r := NewWireReader(data)
	var h wireForm
	if dims == 1 {
		h = r.Cells1D()
	} else {
		h = r.Cells2D()
	}
	return h, r.Close()
}

// FuzzHistWire: arbitrary bytes either fail to decode or decode to a
// histogram that re-encodes to exactly those bytes, never panicking and
// never allocating more than the payload implies; and a histogram built
// from the bytes survives encode → decode → merge into zeros → expand
// with its counts intact.
func FuzzHistWire(f *testing.F) {
	for _, c := range malformedWire {
		f.Add(c.data)
	}
	f.Add(wire1(4, uv(4, 1, 3, 2, 200, 0)...))
	f.Add(wire2(3, 2, uv(6, 2, 1, 4, 1<<40, 0)...))
	f.Add(wire2(MaxBins2D, MaxBins2D, uv(MaxBins2D*MaxBins2D, 0)...)) // a declared 4096² grid, no cells
	f.Fuzz(func(t *testing.T, data []byte) {
		for dims := 1; dims <= 2; dims++ {
			decode := func(b []byte) error { _, err := decodeWire(dims, b); return err }
			if alloc := decodeAlloc(decode, data); alloc > uint64(2*len(data)+4096) {
				t.Fatalf("%dd: decoding %d bytes allocated %d", dims, len(data), alloc)
			}
			h, err := decodeWire(dims, data)
			if err != nil {
				continue
			}
			got, err := h.AppendWire(nil)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%dd: decoded %x re-encodes to %x (%v)", dims, data, got, err)
			}
		}

		// A histogram drawn from the bytes: most cells zero, counts of
		// every uvarint length.
		magnitudes := []uint64{1, 127, 128, 16383, 16384, 1 << 40, math.MaxUint64}
		rng := rand.New(rand.NewSource(int64(len(data))))
		for _, b := range data {
			rng.Seed(rng.Int63() ^ int64(b))
		}
		nx, ny := 1+rng.Intn(40), 1+rng.Intn(40)
		h := &Hist2D{XVar: "x", YVar: "y", XEdges: UniformEdges(0, 1, nx), YEdges: UniformEdges(0, 1, ny),
			Counts: make([]uint64, nx*ny)}
		density := rng.Intn(101)
		for i := range h.Counts {
			if rng.Intn(100) < density {
				h.Counts[i] = magnitudes[rng.Intn(len(magnitudes))] - uint64(rng.Intn(2))
			}
		}
		dec, err := decodeWire(2, must(h.Cells().AppendWire(nil)))
		if err != nil {
			t.Fatalf("%d×%d: %v", nx, ny, err)
		}
		zero := &Cells2D{XEdges: h.XEdges, YEdges: h.YEdges}
		if err := zero.Merge(dec.(*Cells2D)); err != nil || !slices.Equal(zero.Dense().Counts, h.Counts) {
			t.Fatalf("%d×%d: merged counts differ (%v)", nx, ny, err)
		}
	})
}

// decodeAlloc returns the bytes one decode of data allocates: the least
// of three measurements, as the process-wide counter also sees what other
// goroutines (the fuzzing engine's among them) allocate meanwhile.
func decodeAlloc(decode func([]byte) error, data []byte) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode(data)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func TestHistWireRejectsMalformed(t *testing.T) {
	for _, c := range malformedWire {
		if _, err := decodeWire(c.dims, c.data); err == nil {
			t.Errorf("%s: decoded", c.name)
		}
	}
}

// TestHistWireRoundTrip: a decoded partial re-encodes as the dense
// original's cells form, merges in as it, and expands back to it; and a
// reader takes one histogram after another.
func TestHistWireRoundTrip(t *testing.T) {
	h1 := &Hist1D{Var: "x", Edges: []float64{math.Inf(-1), math.Copysign(0, -1), math.NaN(), 3},
		Counts: []uint64{0, 300, math.MaxUint64}}
	h2 := &Hist2D{XVar: "x", YVar: "px", XEdges: UniformEdges(0, 1, 3), YEdges: UniformEdges(-1, 1, 2),
		Counts: []uint64{0, 1, 0, 0, 1 << 40, 7}}
	c1, c2 := h1.Cells(), h2.Cells()
	enc1, enc2 := must(c1.AppendWire(nil)), must(c2.AppendWire(nil))
	r := NewWireReader(append(bytes.Clone(enc2), enc1...))
	d2, d1 := r.Cells2D(), r.Cells1D()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2][]byte{
		"1d counts": {countBytes(3, c1.cells), countBytes(3, d1.cells)},
		"2d counts": {countBytes(6, c2.cells), countBytes(6, d2.cells)},
		"2d wire":   {enc2, must(d2.AppendWire(nil))},
		"1d wire":   {enc1, must(d1.AppendWire(nil))},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Errorf("%s: dense %x, decoded %x", name, pair[0], pair[1])
		}
	}
	if got, want := countBytes(6, c2.cells), uv(6, 2, 1, 3, 1<<40, 1, 7, 0); !bytes.Equal(got, want) {
		t.Errorf("2d counts encode as %x, want %x", got, want)
	}

	if got := d2.Dense(); !slices.Equal(got.Counts, h2.Counts) {
		t.Fatalf("Dense: %v, want %v", got.Counts, h2.Counts)
	}
	acc := h2.Cells()
	if err := acc.Merge(d2); err != nil {
		t.Fatal(err)
	}
	for i, c := range acc.Dense().Counts {
		if c != 2*h2.Counts[i] {
			t.Fatalf("merge: %v", acc.Dense().Counts)
		}
	}
	// Merged into, a decoded partial is a sum of encodings: it takes on
	// the other's, and h2 stays as it was.
	if err := d2.Merge(c2); err != nil || len(d2.cells) != 2 || d2.Total() != 2*h2.Total() ||
		!bytes.Equal(must(d2.AppendWire(nil)), must(acc.AppendWire(nil))) || h2.Counts[4] != 1<<40 {
		t.Fatalf("merge into a decoded partial: %d encodings, total %d, err %v", len(d2.cells), d2.Total(), err)
	}
	acc1 := d1.Dense()
	if err := acc1.Merge(d1.Dense()); err != nil || acc1.Counts[1] != 600 || acc1.Counts[2] != math.MaxUint64-1 {
		t.Fatalf("1d merge: %v %v", acc1.Counts, err)
	}

	// A grid whose encoding runs past 4 KiB round trips like a small one.
	big := &Hist1D{Var: "x", Edges: UniformEdges(0, 1, 5000), Counts: make([]uint64, 5000)}
	for i := range big.Counts {
		big.Counts[i] = uint64(i * 131)
	}
	db, err := decodeWire(1, must(big.Cells().AppendWire(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if got := db.(*Cells1D).Dense(); !slices.Equal(got.Counts, big.Counts) {
		t.Fatal("a large encoding expands to other counts")
	}
}

// countBytes is the compact count encoding of the sum of the encodings
// of a grid of n cells.
func countBytes(n int, cells []encoding) []byte {
	return must(appendCounts(nil, n, cells))
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// TestHistWireEmptyGridStaysSmall: a 4096² grid with no cells decodes to a
// partial of a few tens of KiB (its edges), not 128 MiB of zeros.
func TestHistWireEmptyGridStaysSmall(t *testing.T) {
	data := wire2(MaxBins2D, MaxBins2D, uv(MaxBins2D*MaxBins2D, 0)...)
	decode := func(b []byte) error { _, err := decodeWire(2, b); return err }
	if err := decode(data); err != nil {
		t.Fatal(err)
	}
	if alloc := decodeAlloc(decode, data); alloc > 2*uint64(len(data)) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
	}
}

func TestHistEncodeRejectsShape(t *testing.T) {
	for _, h := range []wireForm{
		(&Hist1D{Var: "x", Edges: []float64{0, 1}, Counts: []uint64{1, 2}}).Cells(),
		&Cells1D{Var: "x"},
		(&Hist2D{XEdges: []float64{0, 1}, YEdges: []float64{0, 1, 2}, Counts: []uint64{1}}).Cells(),
		(&Hist2D{XEdges: UniformEdges(0, 1, MaxBins2D+1), YEdges: []float64{0, 1}, Counts: make([]uint64, MaxBins2D+1)}).Cells(),
	} {
		if _, err := h.AppendWire(nil); err == nil {
			t.Errorf("%T %+v encoded", h, h)
		}
	}
}

// BenchmarkHistWire encodes and decodes a 1 %-occupied 256² partial, the
// shape of a selective explore fragment, and a fully dense 1024² one.
func BenchmarkHistWire(b *testing.B) {
	for _, c := range []struct {
		bins, every int
	}{{256, 100}, {1024, 1}} {
		h := &Hist2D{XVar: "x", YVar: "px", XEdges: UniformEdges(-1, 1, c.bins), YEdges: UniformEdges(-2, 2, c.bins),
			Counts: make([]uint64, c.bins*c.bins)}
		for i := 0; i < len(h.Counts); i += c.every {
			h.Counts[i] = uint64(1 + i*7%1000)
		}
		enc := must(h.Cells().AppendWire(nil))
		name := fmt.Sprintf("%dx%d-%dpct", c.bins, c.bins, 100/c.every)
		b.Run(name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := h.Cells().AppendWire(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := decodeWire(2, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
