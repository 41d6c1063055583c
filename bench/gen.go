package main

// Seeded request streams. A stream is an endless deterministic sequence: the
// first requests are the warm-up, the rest the measured stream, so the two
// never share a key.
//
// Streams are stratified, not drawn independently. The shape of the traffic
// — which kind comes when, on which timestep, at which rung of the
// selectivity ladder, on which axes — is the workload's definition and is
// the same for every seed: every block of twenty requests has the exact
// kind mix, one request on each rung of a log-uniform selectivity ladder,
// and a round-robin of timesteps; where inside its rung a selectivity falls
// and how wide a band or a crop is are part of the shape too, because they
// decide what a request costs (a band twice as wide ORs twice the bitmaps).
// The seed moves every threshold by a hair — 1e-4 of the distribution — which
// changes every cache key and none of the costs. Two seeds therefore ask
// different questions that cost the same, and the spread between runs is the
// system's, not the sampling's.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

// Request kinds: the label a latency sample and a per-kind metric carry.
const (
	kindHist2DCond   = "hist2d_cond"
	kindCount        = "count"
	kindHist2DUncond = "hist2d_uncond"
	kindHist1DCond   = "hist1d_cond"
	kindHist2DScan   = "hist2d_scan"
	kindHit          = "hit"
	kindLatest       = "latest"
	kindSelect       = "select"
	kindRefine       = "refine"
	kindTrack        = "track"
	kindViews        = "views"
	kindSweep2D      = "sweep2d"
	kindIngest       = "ingest"
	kindSession      = "session" // create / delete bookkeeping of a chain
)

// Selectivity range of conditional requests: the hit-count sweep of the
// paper's Figs. 12-13.
const (
	selLo = 1e-4
	selHi = 0.3
)

// request is one query-endpoint call in structured form, so the same value
// renders the URL and feeds the layer ladder.
type request struct {
	Kind    string
	Op      string // "query" | "hist1d" | "hist2d" | "sweep2d"
	Step    int    // -1: omitted, the server takes the newest step
	Cond    string // "" = unconditional
	Backend string // "" = server default (fastbit when indexed), or "scan"
	X, Y    string // axes; X alone for hist1d
	XBins   int
	YBins   int
	// Explicit ranges; NaN = derive from the data (a two-phase plan when
	// scattered).
	XLo, XHi, YLo, YHi float64
}

var nan = math.NaN()

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// URL renders the request path and query string.
func (r request) URL() string {
	q := url.Values{}
	if r.Step >= 0 {
		q.Set("step", strconv.Itoa(r.Step))
	}
	if r.Cond != "" {
		q.Set("q", r.Cond)
	}
	if r.Backend != "" {
		q.Set("backend", r.Backend)
	}
	switch r.Op {
	case "hist1d":
		q.Set("var", r.X)
		q.Set("bins", strconv.Itoa(r.XBins))
	case "hist2d", "sweep2d":
		q.Set("x", r.X)
		q.Set("y", r.Y)
		q.Set("xbins", strconv.Itoa(r.XBins))
		q.Set("ybins", strconv.Itoa(r.YBins))
		for _, b := range []struct {
			name string
			v    float64
		}{{"xlo", r.XLo}, {"xhi", r.XHi}, {"ylo", r.YLo}, {"yhi", r.YHi}} {
			if !math.IsNaN(b.v) {
				q.Set(b.name, fmtF(b.v))
			}
		}
	}
	return "/v1/" + r.Op + "?" + q.Encode()
}

// stepProfile is what the generator knows about one timestep's value
// distributions: enough to turn a target selectivity into a threshold.
type stepProfile struct {
	Rows uint64 `json:"rows"`
	// Q[v] holds profileQuantiles+1 evenly spaced quantiles of variable v.
	Q map[string][]float64 `json:"q"`
	// PxTop holds the largest px values, descending, so tail fractions far
	// below 1/profileQuantiles resolve exactly.
	PxTop []float64 `json:"px_top"`
}

const (
	profileQuantiles = 1024
	profileTop       = 8192
)

// profileVars are the variables the streams put conditions and axes on.
var profileVars = []string{"px", "py", "x", "xrel", "y"}

// newStepProfile summarises one step's columns.
func newStepProfile(cols map[string][]float64) stepProfile {
	sp := stepProfile{Q: map[string][]float64{}}
	for _, v := range profileVars {
		s := sortedCopy(cols[v])
		sp.Rows = uint64(len(s))
		qs := make([]float64, profileQuantiles+1)
		for i := range qs {
			qs[i] = quantile(s, float64(i)/profileQuantiles)
		}
		sp.Q[v] = qs
		if v == "px" {
			k := min(profileTop, len(s))
			sp.PxTop = make([]float64, k)
			for i := range sp.PxTop {
				sp.PxTop[i] = s[len(s)-1-i]
			}
		}
	}
	return sp
}

// quant returns the q-quantile of variable v.
func (sp *stepProfile) quant(v string, q float64) float64 {
	return quantile(sp.Q[v], min(1, max(0, q)))
}

// pxAbove returns the threshold T for which about frac of the rows have
// px > T.
func (sp *stepProfile) pxAbove(frac float64) float64 {
	k := frac * float64(sp.Rows)
	if int(k)+1 < len(sp.PxTop) {
		i := int(k)
		// Halfway between the k-th and (k+1)-th largest values.
		return (sp.PxTop[i] + sp.PxTop[i+1]) / 2
	}
	return sp.quant("px", 1-frac)
}

// profile is the per-step distribution summary of a dataset.
type profile struct {
	Steps []stepProfile `json:"steps"`
}

// mixEntry is one kind's count in a block of twenty requests.
type mixEntry struct {
	kind string
	n    int
}

const blockLen = 20

// bandEvery: every bandEvery-th rung of a block's selectivity ladder gets the
// three-variable condition with the y band, about a sixth of the conditional
// requests, spread over the selectivity range.
const bandEvery = 9

// exploreMix is the explore_* traffic: 45/20/15/10/10 %.
var exploreMix = []mixEntry{
	{kindHist2DCond, 9}, {kindCount, 4}, {kindHist2DUncond, 3}, {kindHist1DCond, 2}, {kindHist2DScan, 2},
}

// ingestMix is the ingest_live reader: 30 % aimed at the newest step, the
// rest the explore mix scaled to the remaining fourteen.
var ingestMix = []mixEntry{
	{kindLatest, 6}, {kindHist2DCond, 6}, {kindCount, 3}, {kindHist2DUncond, 2}, {kindHist1DCond, 2}, {kindHist2DScan, 1},
}

// Axis pairs the histogram kinds rotate through.
var (
	condPairs   = [][2]string{{"x", "px"}, {"y", "py"}, {"px", "py"}, {"xrel", "px"}}
	uncondPairs = [][2]string{{"x", "px"}, {"y", "py"}, {"xrel", "py"}, {"x", "y"}}
	uncondBins  = []int{256, 512, 1024}
	hist1DVars  = []string{"px", "x", "y"}
)

// shapeSeed seeds everything about a workload that is not a value.
const shapeSeed = 0x5ca1ab1e

// stream generates the explore-style request sequence.
type stream struct {
	shape *rand.Rand // kind order, rungs, steps: the same for every seed
	rng   *rand.Rand // values: seeded by --seed
	prof  *profile
	mix   []mixEntry
	steps int // requests target steps [0, steps)
	// latestStep names the profile step whose thresholds stand in for the
	// (moving) newest step of a live dataset.
	latestStep int

	block []request
	n     int // requests handed out
}

// newStream seeds a stream. Two streams with equal arguments are identical.
func newStream(seed uint64, prof *profile, mix []mixEntry, steps int) *stream {
	return &stream{
		shape:      rand.New(rand.NewPCG(shapeSeed, uint64(len(mix)))),
		rng:        rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		prof:       prof,
		mix:        mix,
		steps:      steps,
		latestStep: len(prof.Steps) / 2,
	}
}

// next returns the next request of the sequence.
func (s *stream) next() request {
	if len(s.block) == 0 {
		s.fillBlock()
	}
	r := s.block[0]
	s.block = s.block[1:]
	s.n++
	return r
}

// take returns the next n requests.
func (s *stream) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// fillBlock builds the next twenty requests: exact kind counts in shuffled
// order, timesteps round-robin from a shuffled start, and the conditional
// requests one to a rung of the log-uniform selectivity ladder.
func (s *stream) fillBlock() {
	var kinds []string
	conditional := 0
	for _, m := range s.mix {
		for i := 0; i < m.n; i++ {
			kinds = append(kinds, m.kind)
		}
		if m.kind != kindHist2DUncond {
			conditional += m.n
		}
	}
	s.shape.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	rungs := s.shape.Perm(conditional)
	stepBase := s.shape.IntN(s.steps)
	blockNo := s.n / blockLen
	ci := 0
	for i, k := range kinds {
		step := (stepBase + i) % s.steps
		sel, band := 0.0, false
		if k != kindHist2DUncond {
			u := (float64(rungs[ci]) + s.shape.Float64()) / float64(conditional)
			sel = selLo * math.Pow(selHi/selLo, u)
			band = rungs[ci]%bandEvery == 0
			ci++
		}
		s.block = append(s.block, s.build(k, step, sel, band, blockNo*blockLen+i))
	}
}

// hair is how far, in quantile space, the seed moves a threshold: enough for
// a cache key of its own, too little to change what the request costs.
const hair = 1e-4

// jit is the seed's contribution to a quantile.
func (s *stream) jit() float64 { return hair * (2*s.rng.Float64() - 1) }

// build draws one request of the given kind. band asks for the y band in its
// condition; i is its index in the stream and only rotates axis pairs and
// bin counts.
func (s *stream) build(kind string, step int, sel float64, band bool, i int) request {
	r := request{Kind: kind, Step: step, XLo: nan, XHi: nan, YLo: nan, YHi: nan}
	sp := &s.prof.Steps[step]
	switch kind {
	case kindHist2DCond:
		p := condPairs[i%len(condPairs)]
		r.Op, r.X, r.Y, r.XBins, r.YBins = "hist2d", p[0], p[1], 256, 256
		r.Cond = s.compound(sp, sel, band)
	case kindCount:
		r.Op = "query"
		r.Cond = s.compound(sp, sel, band)
	case kindHist1DCond:
		r.Op, r.X, r.XBins = "hist1d", hist1DVars[i%len(hist1DVars)], 256
		r.Cond = s.compound(sp, sel, band)
	case kindHist2DScan:
		r.Op, r.X, r.Y, r.XBins, r.YBins = "hist2d", "x", "px", 256, 256
		r.Backend = "scan"
		r.Cond = s.compound(sp, sel, band)
	case kindHist2DUncond:
		p := uncondPairs[i%len(uncondPairs)]
		b := uncondBins[(i/len(uncondPairs))%len(uncondBins)]
		r.Op, r.X, r.Y, r.XBins, r.YBins = "hist2d", p[0], p[1], b, b
		// A crop of at most 5 % per side: explicit ranges make the key
		// unique and the plan a direct scatter.
		crop := func(v string) (float64, float64) {
			return sp.quant(v, 0.05*s.shape.Float64()+hair+s.jit()), sp.quant(v, 1-0.05*s.shape.Float64()-hair+s.jit())
		}
		r.XLo, r.XHi = crop(p[0])
		r.YLo, r.YHi = crop(p[1])
	case kindLatest:
		// The newest step of a live dataset: no step parameter, default
		// backend (scan until the index lands, fastbit after).
		r.Op, r.X, r.Y, r.XBins, r.YBins = "hist2d", "x", "px", 256, 256
		r.Step = -1
		r.Cond = s.compound(&s.prof.Steps[s.latestStep], sel, band)
	default:
		panic("bench: stream cannot build kind " + kind)
	}
	return r
}

// compound draws a 2- or 3-variable range condition whose selectivity is
// about sel if the variables were independent: an xrel lower bound, for
// three variables a central y band as well, and the px threshold that makes
// up the rest. Rows are stored in id order, which is x order, so xrel's bin
// bitmaps are runs and cost little; y is scattered over the rows, and a band
// on it ORs a hundred incompressible bitmaps per side. Both shapes are what
// an analyst brushes; the band is the dear one.
func (s *stream) compound(sp *stepProfile, sel float64, band bool) string {
	f3 := 0.6 + 0.35*s.shape.Float64()
	rest := sel / f3
	cond := fmt.Sprintf("xrel > %.9g", sp.quant("xrel", 1-f3+s.jit()))
	if band {
		f2 := 0.5 + 0.45*s.shape.Float64()
		cond += fmt.Sprintf(" && y > %.9g && y < %.9g", sp.quant("y", (1-f2)/2+s.jit()), sp.quant("y", 1-(1-f2)/2+s.jit()))
		rest /= f2
	}
	// The tail of px is a few thousand distinct values: the seed moves the
	// threshold between two of them, not across one.
	px := sp.pxAbove(min(1, rest)) * (1 + 1e-7*s.rng.Float64())
	return fmt.Sprintf("px > %.9g && %s", px, cond)
}

// touchRequests returns one count per step whose condition names every
// profiled variable, so warm-up pays every lazy index load the stream can
// trigger. Thresholds are seed-dependent, so no measured key is pre-cached.
func touchRequests(seed uint64, prof *profile, steps int) []request {
	rng := rand.New(rand.NewPCG(seed, 0x7061636b))
	out := make([]request, steps)
	for t := range out {
		sp := &prof.Steps[t]
		var terms []string
		for i, v := range profileVars {
			terms = append(terms, fmt.Sprintf("%s > %.9g", v, sp.quant(v, 0.5+0.08*float64(i)+hair*rng.Float64())))
		}
		out[t] = request{Kind: kindCount, Op: "query", Step: t, Cond: strings.Join(terms, " && "),
			XLo: nan, XHi: nan, YLo: nan, YHi: nan}
	}
	return out
}

// Dashboard panels: 48 keys that fit the 256-entry result cache.
const hotKeys = 48

// hotShapes assigns an endpoint to each popularity rank so that the
// Zipf-weighted shares come out 60 % hist2d, 30 % hist1d, 10 % query whatever
// the seed: rank by rank, the shape furthest below its share takes the rank.
func hotShapes(weights []float64) []string {
	ops := []string{"hist2d", "hist1d", "query"}
	share := []float64{0.6, 0.3, 0.1}
	quota := []int{29, 14, 5}
	got := make([]float64, len(ops))
	out := make([]string, len(weights))
	for r, w := range weights {
		best := -1
		for k := range ops {
			if quota[k] == 0 {
				continue
			}
			if best < 0 || got[k]/share[k] < got[best]/share[best] {
				best = k
			}
		}
		out[r] = ops[best]
		got[best] += w
		quota[best]--
	}
	return out
}

// zipfWeights returns the normalised Zipf(s) weights of n ranks.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// hotSet is the dash_hot workload's inputs: the panels, rank 0 the most
// popular.
type hotSet struct {
	Keys []request
}

// newHotSet draws the 48 panels for a seed: the shapes by rank are fixed, the
// thresholds are the seed's.
func newHotSet(seed uint64, prof *profile, steps int) *hotSet {
	shapes := hotShapes(zipfWeights(hotKeys, 1.1))
	st := newStream(seed^0x5bd1e995, prof, exploreMix, steps)
	h := &hotSet{}
	for r, op := range shapes {
		kind := map[string]string{"hist2d": kindHist2DCond, "hist1d": kindHist1DCond, "query": kindCount}[op]
		// Panels show selections worth a dashboard: 1 %..30 % of the rows.
		sel := 0.01 * math.Pow(30, (float64(r%8)+0.5)/8)
		k := st.build(kind, r%steps, sel, r%bandEvery == 0, r)
		k.Kind = kindHit
		h.Keys = append(h.Keys, k)
	}
	return h
}

// sequence returns the panels asked for by n arrivals: rank r gets its exact
// Zipf(1.1) share of them, in an order that is part of the workload's shape.
func (h *hotSet) sequence(n int) []request {
	w := zipfWeights(len(h.Keys), 1.1)
	ranks := make([]int, 0, n)
	acc := 0.0
	for r := range w {
		acc += w[r] * float64(n)
		for len(ranks) < int(acc+0.5) && len(ranks) < n {
			ranks = append(ranks, r)
		}
	}
	for len(ranks) < n {
		ranks = append(ranks, 0)
	}
	shape := rand.New(rand.NewPCG(shapeSeed, 0x72616e6b))
	shape.Shuffle(n, func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	out := make([]request, n)
	for i, r := range ranks {
		out[i] = h.Keys[r]
	}
	return out
}

// arrivals returns n send times in [0, window): one realisation of a Poisson
// process conditioned on its count. The bursts are part of the workload's
// shape, so every seed meets the same ones.
func arrivals(n int, windowSec float64) []float64 {
	rng := rand.New(rand.NewPCG(shapeSeed, 0x617272))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * windowSec
	}
	sort.Float64s(out)
	return out
}

// chain is one session_track analysis: brush, four refinements, track, views
// and a sweep over every step, with thresholds no other chain uses.
type chain struct {
	Step   int
	Brush  string
	Deltas []string
}

// Folded returns the conjunction the chain's selection stands for.
func (c chain) Folded() string {
	return strings.Join(append([]string{c.Brush}, c.Deltas...), " && ")
}

// chainGen draws chains for a seed.
type chainGen struct {
	shape *rand.Rand
	rng   *rand.Rand
	prof  *profile
	steps int
	n     int
}

func newChainGen(seed uint64, prof *profile, steps int) *chainGen {
	return &chainGen{
		shape: rand.New(rand.NewPCG(shapeSeed, 0x636861696e)),
		rng:   rand.New(rand.NewPCG(seed, 0x636861696e)),
		prof:  prof, steps: steps,
	}
}

// next draws the next chain. The brush keeps 1..3 % of the rows (a beam-sized
// selection, well under the server's tracking cap); each refinement trims a
// tail of another variable. No refinement is a y band: the sweep re-evaluates
// the folded predicate from the index on all twelve steps, and the band's
// cost there (see compound) would leave a ten-second window a dozen chains.
func (g *chainGen) next() chain {
	step := g.n % g.steps
	g.n++
	sp := &g.prof.Steps[step]
	u := g.shape.Float64 // what a chain costs
	jit := func() float64 { return hair * (2*g.rng.Float64() - 1) }
	nudge := func() float64 { return 1 + 1e-4*g.rng.Float64() } // between two tail values of px
	c := chain{Step: step}
	c.Brush = fmt.Sprintf("px > %.9g", sp.pxAbove(0.01*math.Pow(3, u()))*nudge())
	c.Deltas = []string{
		fmt.Sprintf("xrel > %.9g", sp.quant("xrel", 0.05+0.15*u()+jit())),
		fmt.Sprintf("py < %.9g", sp.quant("py", 0.95-0.1*u()+jit())),
		fmt.Sprintf("py > %.9g", sp.quant("py", 0.05+0.1*u()+jit())),
		fmt.Sprintf("px < %.9g", sp.pxAbove(1e-4*(1+u()))*nudge()),
	}
	return c
}
