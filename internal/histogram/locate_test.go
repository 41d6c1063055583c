package histogram

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oracleEdges draws the edge sets a Locator must handle: UniformEdges at
// random and extreme (lo, hi, n) — spans UniformEdges widens (lo == hi,
// a few ulps) or nudges, spans near MaxFloat64, subnormal steps whose
// reciprocal is +Inf — and AdaptiveEdges output, which is not uniform.
func oracleEdges(rng *rand.Rand) [][]float64 {
	mag := func() float64 { return math.Pow(10, float64(rng.Intn(600)-300)) }
	n := func() int { return 1 + rng.Intn(1024) }
	lo := rng.NormFloat64() * mag()
	sets := [][]float64{
		UniformEdges(lo, lo+math.Abs(rng.NormFloat64())*mag(), n()),
		UniformEdges(lo, lo, n()),                              // widened by 1e-9·|lo|
		UniformEdges(lo, math.Nextafter(lo, math.Inf(1)), n()), // widened to 4n ulps
		UniformEdges(0, 5e-324, n()),                           // subnormal step: inv is +Inf
		UniformEdges(-1e-320, 1e-320, n()),
		UniformEdges(-math.MaxFloat64/2, math.MaxFloat64/2, n()),
		UniformEdges(math.MaxFloat64*0.9, math.MaxFloat64, n()),
		UniformEdges(-math.MaxFloat64, -math.MaxFloat64*0.9, n()),
		{0, 5e-324},
		{-1e-323, 0, 1e-323},
		{-1.5e308, 0, 1.5e308}, // step +Inf
	}
	// Adaptive edges over a heavy-tailed sample.
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Exp(2*rng.NormFloat64())
	}
	vlo, vhi := slices.Min(vals), slices.Max(vals)
	if e, err := AdaptiveEdges(vals, vlo, vhi, 1+rng.Intn(64), 0); err == nil {
		sets = append(sets, e)
	}
	return sets
}

// probes are the values every locator is asked about: each edge and its
// neighbours on both sides, lo, hi, −0, NaN and ±Inf.
func probes(edges []float64) []float64 {
	out := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, e := range edges {
		out = append(out, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
	}
	return out
}

// checkGuess fails when Guess accepts a bin other than Bin's, or Bin
// disagrees with the linear search slowBin.
func checkGuess(t testing.TB, l *Locator, vs []float64) {
	t.Helper()
	for _, v := range vs {
		want := slowBin(l.Edges(), v)
		if got := l.Bin(v); got != want {
			t.Fatalf("edges [%g … %g] (%d bins): Bin(%g) = %d, want %d", l.lo, l.hi, l.n, v, got, want)
		}
		if g := l.Guess(v); g >= 0 && g != want {
			t.Fatalf("edges [%g … %g] (%d bins): Guess(%g) = %d, Bin = %d", l.lo, l.hi, l.n, v, g, want)
		}
	}
}

// TestGuessIsBin: whenever Guess accepts a bin it is Bin's, on every
// edge set oracleEdges draws, at every probe.
func TestGuessIsBin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 40; round++ {
		for _, edges := range oracleEdges(rng) {
			l, err := NewLocator(edges)
			if err != nil {
				t.Fatalf("edges %v: %v", edges[:min(len(edges), 4)], err)
			}
			checkGuess(t, l, probes(edges))
		}
	}
}

// TestGuessHitsUniform: on uniform edges the guess is the common case —
// it misses only values that rounding puts across an edge — so the
// binning loops rarely call Bin.
func TestGuessHitsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bins := range []int{16, 256, 1024} {
		l, err := NewLocator(UniformEdges(-3.7, 12.1, bins))
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if l.Guess(-3.7+15.8*rng.Float64()) >= 0 {
				hits++
			}
		}
		if hits < n*99/100 {
			t.Errorf("%d bins: Guess hit %d of %d in-range values", bins, hits, n)
		}
	}
}

// FuzzLocate: edges from UniformEdges(lo, hi, n), or AdaptiveEdges over
// values drawn from seed, probed at every edge, both neighbours of each,
// lo, hi, −0, NaN, ±Inf and v.
func FuzzLocate(f *testing.F) {
	f.Add(0.0, 1.0, uint16(256), false, int64(0), 0.5)
	f.Add(-3.0, 7.0, uint16(64), true, int64(1), 1e-300)
	f.Add(1e300, 1e300, uint16(1000), false, int64(0), 1e300)
	f.Add(0.0, 5e-324, uint16(3), false, int64(0), 5e-324)
	f.Add(-math.MaxFloat64/2, math.MaxFloat64/2, uint16(7), false, int64(0), math.MaxFloat64)
	f.Add(0.1, 0.30000000000000004, uint16(3), false, int64(0), 0.2)
	f.Fuzz(func(t *testing.T, lo, hi float64, n uint16, adaptive bool, seed int64, v float64) {
		bins := 1 + int(n)%2048
		edges := UniformEdges(lo, hi, bins)
		if adaptive {
			rng := rand.New(rand.NewSource(seed))
			vals := make([]float64, 512)
			for i := range vals {
				vals[i] = lo + (hi-lo)*math.Abs(rng.NormFloat64())/4
			}
			var err error
			if edges, err = AdaptiveEdges(vals, lo, hi, 1+bins%128, 0); err != nil {
				t.Skip()
			}
		}
		l, err := NewLocator(edges)
		if err != nil {
			t.Skip() // NaN or infinite lo, hi: no edges to locate in
		}
		checkGuess(t, l, append(probes(edges), lo, hi, v))
	})
}

// TestBinningLoopsMatchBin: every loop that locates through Guess —
// Compute1D, Compute2D's dense grid, a partial's pooled grid and its
// sorted cell indices — counts what a loop calling Bin counts.
func TestBinningLoopsMatchBin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		sets := oracleEdges(rng)
		for i, xe := range sets {
			ye := sets[(i+1)%len(sets)]
			xs, ys := probes(xe), probes(ye)
			for len(ys) < len(xs) {
				ys = append(ys, ys...)
			}
			ys = ys[:len(xs)]
			rng.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
			name := fmt.Sprintf("round %d set %d", round, i)

			lx, err := NewLocator(xe)
			if err != nil {
				t.Fatalf("%s: %v: %v", name, xe[:min(4, len(xe))], err)
			}
			ly, err := NewLocator(ye)
			if err != nil {
				t.Fatalf("%s: %v: %v", name, ye[:min(4, len(ye))], err)
			}
			want1 := make([]uint64, lx.Bins())
			want2 := make([]uint64, lx.Bins()*ly.Bins())
			for j, x := range xs {
				ix, iy := lx.Bin(x), ly.Bin(ys[j])
				if ix >= 0 {
					want1[ix]++
				}
				if ix >= 0 && iy >= 0 {
					want2[iy*lx.Bins()+ix]++
				}
			}
			h1, err := Compute1D("x", xs, xe)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(h1.Counts, want1) {
				t.Errorf("%s: Compute1D counts differ from Bin's", name)
			}
			if len(want2) > 1<<22 {
				continue
			}
			h2, err := Compute2D("x", "y", xs, ys, xe, ye)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(h2.Counts, want2) {
				t.Errorf("%s: Compute2D counts differ from Bin's", name)
			}
			for _, sparse := range []bool{false, true} {
				p, err := compute2D(ctx, "x", "y", xs, ys, xe, ye, sparse)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(p.Dense().Counts, want2) {
					t.Errorf("%s: partial (sparse %v) counts differ from Bin's", name, sparse)
				}
			}
		}
	}
}
