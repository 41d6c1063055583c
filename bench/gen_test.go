package main

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/scan"
	"repro/internal/sim"
)

// testData is a D12-shaped dataset a tenth the size, generated in memory:
// same steps, same beam share, same seed.
type testData struct {
	prof *profile
	cols []map[string][]float64
}

var cachedTestData *testData

func smallD12(t testing.TB) *testData {
	t.Helper()
	if cachedTestData != nil {
		return cachedTestData
	}
	cfg := sim.DefaultConfig()
	cfg.Steps, cfg.BackgroundPerStep, cfg.BeamParticles, cfg.Seed = d12Steps, d12Particles/10, d12Beam/10, 0x5eed
	run, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	td := &testData{prof: &profile{}}
	for s := 0; s < d12Steps; s++ {
		ps, err := run.Step(s)
		if err != nil {
			t.Fatal(err)
		}
		td.cols = append(td.cols, ps.Columns())
		td.prof.Steps = append(td.prof.Steps, newStepProfile(ps.Columns()))
	}
	cachedTestData = td
	return td
}

// spec renders everything of a request that is not its condition: with the
// canonical condition it is the server's cache key.
func (r request) spec() string {
	return strings.Join([]string{
		r.Op, strconv.Itoa(r.Step), r.Backend, r.X, r.Y,
		strconv.Itoa(r.XBins), strconv.Itoa(r.YBins),
		fmtF(r.XLo), fmtF(r.XHi), fmtF(r.YLo), fmtF(r.YHi),
	}, "|")
}

func canonKey(t *testing.T, r request) string {
	t.Helper()
	if r.Cond == "" {
		return r.spec()
	}
	e, err := query.Parse(r.Cond)
	if err != nil {
		t.Fatalf("generated condition %q does not parse: %v", r.Cond, err)
	}
	return query.Canonical(e).String() + "\x1f" + r.spec()
}

func TestStreamSameSeedSameURLs(t *testing.T) {
	td := smallD12(t)
	a := newStream(7, td.prof, exploreMix, d12Steps).take(300)
	b := newStream(7, td.prof, exploreMix, d12Steps).take(300)
	c := newStream(8, td.prof, exploreMix, d12Steps).take(300)
	same := 0
	for i := range a {
		if a[i].URL() != b[i].URL() {
			t.Fatalf("request %d differs between two streams of seed 7:\n%s\n%s", i, a[i].URL(), b[i].URL())
		}
		if a[i].URL() == c[i].URL() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d of 300 URLs equal between seeds 7 and 8", same)
	}
}

func TestStreamKeysUniqueAndDisjointFromWarmUp(t *testing.T) {
	td := smallD12(t)
	seen := map[string]int{}
	note := func(i int, r request) {
		k := canonKey(t, r)
		if j, dup := seen[k]; dup {
			t.Fatalf("requests %d and %d share the cache key %q", j, i, k)
		}
		seen[k] = i
	}
	for i, r := range touchRequests(3, td.prof, d12Steps) {
		note(-1-i, r)
	}
	// The stream's first warmStream requests are the warm-up, the rest the
	// measured stream: one uniqueness check covers both properties.
	for i, r := range newStream(3, td.prof, exploreMix, d12Steps).take(3000) {
		note(i, r)
	}
}

func TestStreamKindShares(t *testing.T) {
	td := smallD12(t)
	for _, tc := range []struct {
		name string
		mix  []mixEntry
	}{{"explore", exploreMix}, {"ingest", ingestMix}} {
		const n = 1000
		got := map[string]int{}
		for _, r := range newStream(11, td.prof, tc.mix, liveBase).take(n) {
			got[r.Kind]++
		}
		for _, m := range tc.mix {
			want := float64(m.n) / blockLen
			if share := float64(got[m.kind]) / n; math.Abs(share-want) > 0.02 {
				t.Errorf("%s mix: kind %s has share %.3f, want %.3f within 2 points", tc.name, m.kind, share, want)
			}
		}
	}
}

func TestCondSelectivitiesSpanThreeDecades(t *testing.T) {
	td := smallD12(t)
	lo, hi := math.Inf(1), 0.0
	for _, r := range newStream(5, td.prof, exploreMix, d12Steps).take(400) {
		if r.Kind != kindHist2DCond {
			continue
		}
		cols := scan.Columns(td.cols[r.Step])
		n, err := scan.Count(cols, query.MustParse(r.Cond))
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			continue
		}
		sel := float64(n) / float64(td.prof.Steps[r.Step].Rows)
		lo, hi = math.Min(lo, sel), math.Max(hi, sel)
	}
	if decades := math.Log10(hi / lo); decades < 3 {
		t.Errorf("hist2d_cond selectivities span [%.2g, %.2g] = %.2f decades, want >= 3", lo, hi, decades)
	}
}

func TestHotSetSharesAndSchedule(t *testing.T) {
	td := smallD12(t)
	h := newHotSet(9, td.prof, d12Steps)
	if len(h.Keys) != hotKeys {
		t.Fatalf("%d keys, want %d", len(h.Keys), hotKeys)
	}
	keys := map[string]bool{}
	for _, k := range h.Keys {
		keys[canonKey(t, k)] = true
	}
	if len(keys) != hotKeys {
		t.Errorf("only %d distinct cache keys among %d panels", len(keys), hotKeys)
	}
	const n = 1000
	got := map[string]float64{}
	for _, k := range h.sequence(n) {
		got[k.Op] += 1.0 / n
	}
	for op, want := range map[string]float64{"hist2d": 0.6, "hist1d": 0.3, "query": 0.1} {
		if math.Abs(got[op]-want) > 0.03 {
			t.Errorf("panel draws: %s has share %.3f, want %.2f within 3 points", op, got[op], want)
		}
	}
	due := arrivals(1000, 10)
	if len(due) != 1000 {
		t.Fatalf("%d arrivals, want 1000", len(due))
	}
	for i, d := range due {
		if d < 0 || d >= 10 || (i > 0 && d < due[i-1]) {
			t.Fatalf("arrival %d at %.4f s is outside [0,10) or out of order", i, d)
		}
	}
}

func TestChainsNeverShareAThreshold(t *testing.T) {
	td := smallD12(t)
	g := newChainGen(4, td.prof, d12Steps)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		c := g.next()
		for _, p := range append([]string{c.Brush}, c.Deltas...) {
			if seen[p] {
				t.Fatalf("chain %d repeats the predicate %q", i, p)
			}
			seen[p] = true
		}
		if _, err := query.Parse(c.Folded()); err != nil {
			t.Fatalf("folded predicate %q does not parse: %v", c.Folded(), err)
		}
	}
}
