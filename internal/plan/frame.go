package plan

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/obs"
)

// A fragment result crosses the shard wire as one frame, its only
// encoding, and so does the fragment that asks for it. A frame is a
// version byte, a body, and a CRC-32 (IEEE, little-endian) of everything
// before it. A result's body, every number a minimal uvarint, every float
// its IEEE-754 bits and every string its length and bytes:
//
//	Count
//	len(MinMax), then per range: Var, Lo, Hi, N
//	0, or 1 and Hist1 in its wire form (histogram.Cells1D.AppendWire)
//	0, or 1 and Hist2 in its wire form
//	len(Sel), then Sel[0] and each later position's gap from the one before
//
// Decoding checks the CRC first, then the version, then validates every
// field and refuses bytes left over; it errors, never panics, and
// allocates only what the payload can back. The body is canonical, so a
// decoded result re-encodes to the frame it came from. A nil and an empty
// slice are one value on the wire, and decode as nil.
const frameVersion = 1

var metricReplyCorrupt = obs.Default().Counter("shard_reply_corrupt_total",
	"Fragment result frames refused at decode (checksum, version or field validation): transport corruption or a mixed-version fleet.")

// seal appends the frame's CRC trailer.
func seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// openFrame checks a frame's CRC, then its version, and returns a reader
// over its body: one that has failed when either check does.
func openFrame(data []byte) *histogram.WireReader {
	r := histogram.NewWireReader(nil)
	switch n := len(data) - 4; {
	case n < 1:
		r.Fail("frame of %d bytes", len(data))
	case crc32.ChecksumIEEE(data[:n]) != binary.LittleEndian.Uint32(data[n:]):
		r.Fail("checksum mismatch")
	case data[0] != frameVersion:
		r.Fail("frame version %d, want %d", data[0], frameVersion)
	default:
		r = histogram.NewWireReader(data[1:n])
	}
	return r
}

// MarshalBinary encodes r as its frame.
func (r *FragmentResult) MarshalBinary() ([]byte, error) {
	b := append(make([]byte, 0, 64+2*len(r.Sel)), frameVersion) // a position takes 1-2 bytes
	b = binary.AppendUvarint(b, r.Count)
	b = binary.AppendUvarint(b, uint64(len(r.MinMax)))
	for _, v := range r.MinMax {
		b = histogram.AppendFloat(histogram.AppendFloat(histogram.AppendString(b, v.Var), v.Lo), v.Hi)
		b = binary.AppendUvarint(b, v.N)
	}
	var err error
	if r.Hist1 == nil {
		b = append(b, 0)
	} else if b, err = r.Hist1.AppendWire(append(b, 1)); err != nil {
		return nil, err
	}
	if r.Hist2 == nil {
		b = append(b, 0)
	} else if b, err = r.Hist2.AppendWire(append(b, 1)); err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(len(r.Sel)))
	prev := uint64(0)
	for i, p := range r.Sel {
		if i > 0 && p <= prev {
			return nil, fmt.Errorf("plan: encode result: position %d of %d not ascending", i, len(r.Sel))
		}
		b = binary.AppendUvarint(b, p-prev)
		prev = p
	}
	return seal(b), nil
}

// UnmarshalBinary decodes and validates a frame. A refused frame counts in
// shard_reply_corrupt_total: every decode of one is a reply read off the
// shard wire, and the error reaches no caller that could count it when
// the call fails over to another replica.
func (r *FragmentResult) UnmarshalBinary(data []byte) error {
	w := openFrame(data)
	res := FragmentResult{Count: w.Uvarint()}
	if n := w.Len(18); n > 0 { // a range is at least 1+8+8+1 bytes
		res.MinMax = make([]VarRange, n)
		for i := range res.MinMax {
			res.MinMax[i] = VarRange{Var: w.Str(), Lo: w.Float(), Hi: w.Float(), N: w.Uvarint()}
		}
	}
	if present(w) {
		res.Hist1 = w.Cells1D()
	}
	if present(w) {
		res.Hist2 = w.Cells2D()
	}
	if n := w.Len(1); n > 0 {
		res.Sel = make([]uint64, n)
		res.Sel[0] = w.Uvarint()
		for i := 1; i < n; i++ {
			gap := w.Uvarint()
			if gap == 0 || gap > math.MaxUint64-res.Sel[i-1] {
				w.Fail("position %d: gap %d after %d", i, gap, res.Sel[i-1])
			}
			res.Sel[i] = res.Sel[i-1] + gap
		}
	}
	if err := w.Close(); err != nil {
		metricReplyCorrupt.Inc()
		return fmt.Errorf("plan: corrupt result frame: %w", err)
	}
	*r = res
	return nil
}

// present reads a presence flag.
func present(r *histogram.WireReader) bool {
	v := r.Uvarint()
	if v > 1 {
		r.Fail("presence flag %d", v)
	}
	return v == 1
}

// MarshalBinary frames f for the shard wire, its floats as IEEE-754 bits:
// gob leaves a zero float field out of a struct, so a −0 range bound would
// reach the shard as +0, under another key and binning to other edges.
// The three cut lists close the body, each its length and its cuts; one
// decodes only when histogram.CheckCuts accepts it for its axis.
func (f Fragment) MarshalBinary() ([]byte, error) {
	s1, s2 := f.Spec1, f.Spec2
	b := []byte{frameVersion}
	for _, s := range []string{f.Dataset, f.Query, s1.Var, s2.XVar, s2.YVar} {
		b = histogram.AppendString(b, s)
	}
	for _, n := range []uint64{uint64(f.Op), uint64(f.Step), f.Rows.Lo, f.Rows.Hi, uint64(f.Backend),
		uint64(s1.Bins), uint64(s1.Binning), uint64(s2.XBins), uint64(s2.YBins), uint64(s2.Binning),
		uint64(len(f.Vars))} {
		b = binary.AppendUvarint(b, n)
	}
	for _, v := range f.Vars {
		b = histogram.AppendString(b, v)
	}
	for _, v := range []float64{s1.Lo, s1.Hi, s1.MinDensity, s2.XLo, s2.XHi, s2.YLo, s2.YHi, s2.MinDensity} {
		b = histogram.AppendFloat(b, v)
	}
	for _, cuts := range [][]int{s1.Cuts, s2.XCuts, s2.YCuts} {
		b = binary.AppendUvarint(b, uint64(len(cuts)))
		for _, c := range cuts {
			b = binary.AppendUvarint(b, uint64(c))
		}
	}
	return seal(b), nil
}

// UnmarshalBinary reads what MarshalBinary writes.
func (f *Fragment) UnmarshalBinary(data []byte) error {
	r := openFrame(data)
	var g Fragment
	g.Dataset, g.Query, g.Spec1.Var, g.Spec2.XVar, g.Spec2.YVar = r.Str(), r.Str(), r.Str(), r.Str(), r.Str()
	u := func() int { return int(r.Uvarint()) }
	g.Op, g.Step, g.Rows = FragOp(u()), u(), RowRange{r.Uvarint(), r.Uvarint()}
	g.Backend = fastquery.Backend(u())
	g.Spec1.Bins, g.Spec1.Binning = u(), histogram.Binning(u())
	g.Spec2.XBins, g.Spec2.YBins, g.Spec2.Binning = u(), u(), histogram.Binning(u())
	if n := r.Len(1); n > 0 {
		g.Vars = make([]string, n)
		for i := range g.Vars {
			g.Vars[i] = r.Str()
		}
	}
	for _, p := range []*float64{&g.Spec1.Lo, &g.Spec1.Hi, &g.Spec1.MinDensity,
		&g.Spec2.XLo, &g.Spec2.XHi, &g.Spec2.YLo, &g.Spec2.YHi, &g.Spec2.MinDensity} {
		*p = r.Float()
	}
	cuts := func(bins int) (c []int) {
		if n := r.Len(1); n > 0 {
			c = make([]int, n)
			for i := range c {
				c[i] = u()
			}
			if err := histogram.CheckCuts(c, bins); err != nil {
				r.Fail("%v", err)
			}
		}
		return c
	}
	g.Spec1.Cuts, g.Spec2.XCuts, g.Spec2.YCuts = cuts(g.Spec1.Bins), cuts(g.Spec2.XBins), cuts(g.Spec2.YBins)
	if err := r.Close(); err != nil {
		return fmt.Errorf("plan: decode fragment: %w", err)
	}
	*f = g
	return nil
}
