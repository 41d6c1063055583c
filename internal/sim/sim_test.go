package sim

import (
	"math"
	"testing"

	"repro/internal/fastbit"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.BackgroundPerStep = 2000
	cfg.BeamParticles = 100
	return cfg
}

func TestNewValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Steps = 1 },
		func(c *Config) { c.Dim = 4 },
		func(c *Config) { c.BackgroundPerStep = 0 },
		func(c *Config) { c.WindowLength = 0 },
		func(c *Config) { c.WindowSpeed = -1 },
		func(c *Config) { c.SuprathermalFrac = 2 },
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(smallConfig()); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestStepDeterministic(t *testing.T) {
	s1, _ := New(smallConfig())
	s2, _ := New(smallConfig())
	a, err := s1.Step(20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.Step(20)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() {
		t.Fatalf("nondeterministic count: %d vs %d", a.N(), b.N())
	}
	for i := range a.ID {
		if a.ID[i] != b.ID[i] || a.X[i] != b.X[i] || a.Px[i] != b.Px[i] {
			t.Fatalf("nondeterministic particle %d", i)
		}
	}
}

func TestStepOutOfRange(t *testing.T) {
	s, _ := New(smallConfig())
	if _, err := s.Step(-1); err == nil {
		t.Fatal("negative step accepted")
	}
	if _, err := s.Step(smallConfig().Steps); err == nil {
		t.Fatal("overflow step accepted")
	}
}

func TestIDsUniquePerStep(t *testing.T) {
	s, _ := New(smallConfig())
	for _, step := range []int{0, 14, 37} {
		ps, err := s.Step(step)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int64]bool, ps.N())
		for _, id := range ps.ID {
			if seen[id] {
				t.Fatalf("step %d: duplicate id %d", step, id)
			}
			seen[id] = true
		}
	}
}

func TestParticleCountRoughlyConstant(t *testing.T) {
	s, _ := New(smallConfig())
	base := 0
	for _, step := range []int{5, 15, 25, 35} {
		ps, err := s.Step(step)
		if err != nil {
			t.Fatal(err)
		}
		if base == 0 {
			base = ps.N()
			continue
		}
		ratio := float64(ps.N()) / float64(base)
		if ratio < 0.9 || ratio > 1.2 {
			t.Fatalf("step %d count %d strays from base %d", step, ps.N(), base)
		}
	}
}

func TestParticlesInsideWindow(t *testing.T) {
	s, _ := New(smallConfig())
	for _, step := range []int{0, 20, 37} {
		ps, err := s.Step(step)
		if err != nil {
			t.Fatal(err)
		}
		w0, w1 := s.WindowStart(step), s.WindowEnd(step)
		slack := 0.01 * (w1 - w0)
		for i, x := range ps.X {
			if x < w0-slack || x > w1+slack {
				t.Fatalf("step %d particle %d (id %d) at x=%g outside window [%g,%g]",
					step, i, ps.ID[i], x, w0, w1)
			}
		}
	}
}

func TestXRelDerivation(t *testing.T) {
	s, _ := New(smallConfig())
	ps, err := s.Step(25)
	if err != nil {
		t.Fatal(err)
	}
	maxRel := math.Inf(-1)
	for i, xr := range ps.XRel {
		if xr > maxRel {
			maxRel = xr
		}
		if xr > 1e-18 {
			t.Fatalf("xrel[%d] = %g > 0", i, xr)
		}
	}
	if maxRel != 0 {
		t.Fatalf("max xrel = %g, want 0", maxRel)
	}
}

func TestBackgroundFlowsThroughWindow(t *testing.T) {
	s, _ := New(smallConfig())
	early, _ := s.Step(2)
	late, _ := s.Step(35)
	earlySet := map[int64]bool{}
	for _, id := range early.ID {
		earlySet[id] = true
	}
	// Most late-step background particles were not present early on: the
	// window has moved past the early plasma.
	lo1, _ := s.BeamIDs(1)
	var stale int
	var total int
	for _, id := range late.ID {
		if id >= lo1 {
			continue // skip beams
		}
		total++
		if earlySet[id] {
			stale++
		}
	}
	if total == 0 {
		t.Fatal("no background at late step")
	}
	if float64(stale)/float64(total) > 0.05 {
		t.Fatalf("%d/%d late background particles were already present at t=2", stale, total)
	}
}

func TestBeamsAbsentBeforeInjection(t *testing.T) {
	s, _ := New(smallConfig())
	ps, _ := s.Step(s.InjectionStep() - 1)
	lo1, _ := s.BeamIDs(1)
	for _, id := range ps.ID {
		if id >= lo1 {
			t.Fatalf("beam particle %d present before injection", id)
		}
	}
	// After injection+1, all beam particles present.
	ps2, _ := s.Step(s.InjectionStep() + 1)
	var beams int
	for _, id := range ps2.ID {
		if id >= lo1 {
			beams++
		}
	}
	if beams != 2*s.Config().BeamParticles {
		t.Fatalf("found %d beam particles, want %d", beams, 2*s.Config().BeamParticles)
	}
}

// beamStats returns the mean px of each beam at step t.
func beamStats(t *testing.T, s *Simulation, step int) (mean1, mean2 float64) {
	t.Helper()
	ps, err := s.Step(step)
	if err != nil {
		t.Fatal(err)
	}
	lo1, hi1 := s.BeamIDs(1)
	lo2, hi2 := s.BeamIDs(2)
	var sum1, sum2 float64
	var n1, n2 int
	for i, id := range ps.ID {
		switch {
		case id >= lo1 && id < hi1:
			sum1 += ps.Px[i]
			n1++
		case id >= lo2 && id < hi2:
			sum2 += ps.Px[i]
			n2++
		}
	}
	if n1 == 0 || n2 == 0 {
		t.Fatalf("step %d: beams missing (%d, %d)", step, n1, n2)
	}
	return sum1 / float64(n1), sum2 / float64(n2)
}

func TestBeamDephasingStory(t *testing.T) {
	s, _ := New(smallConfig())
	peak := s.PeakStep()
	last := s.Config().Steps - 1

	m1Peak, m2Peak := beamStats(t, s, peak)
	m1Last, m2Last := beamStats(t, s, last)

	// At the peak, beam 1 leads clearly (paper Fig. 5: much higher
	// acceleration and lower spread at t=27).
	if m1Peak < 1.3*m2Peak {
		t.Fatalf("at peak: beam1 %g not clearly above beam2 %g", m1Peak, m2Peak)
	}
	// After dephasing, beam 1 has decelerated.
	if m1Last >= m1Peak {
		t.Fatalf("beam1 did not decelerate: peak %g, last %g", m1Peak, m1Last)
	}
	// Beam 2 keeps accelerating and ends at or above beam 1.
	if m2Last < m2Peak {
		t.Fatalf("beam2 decelerated: %g -> %g", m2Peak, m2Last)
	}
	if m2Last < m1Last {
		t.Fatalf("beam2 (%g) should end >= beam1 (%g)", m2Last, m1Last)
	}
}

func TestLateThresholdSelectsBothBeams(t *testing.T) {
	s, _ := New(smallConfig())
	last := s.Config().Steps - 1
	ps, _ := s.Step(last)
	lo1, hi1 := s.BeamIDs(1)
	lo2, hi2 := s.BeamIDs(2)
	// The paper's selection: px > 8.872e10 at the final step catches both
	// beams and nothing else (almost).
	thr := 8.0e10
	sel1, sel2, selBg := 0, 0, 0
	for i, id := range ps.ID {
		if ps.Px[i] <= thr {
			continue
		}
		switch {
		case id >= lo1 && id < hi1:
			sel1++
		case id >= lo2 && id < hi2:
			sel2++
		default:
			selBg++
		}
	}
	if sel1 < s.Config().BeamParticles/2 {
		t.Fatalf("threshold misses beam1: %d selected", sel1)
	}
	if sel2 < s.Config().BeamParticles/2 {
		t.Fatalf("threshold misses beam2: %d selected", sel2)
	}
	if selBg > 5 {
		t.Fatalf("threshold selects %d background particles", selBg)
	}
}

func TestBeamSpreadTightensAtPeak(t *testing.T) {
	s, _ := New(smallConfig())
	peak := s.PeakStep()
	lo1, hi1 := s.BeamIDs(1)
	spread := func(step int) float64 {
		ps, _ := s.Step(step)
		var vals []float64
		for i, id := range ps.ID {
			if id >= lo1 && id < hi1 {
				vals = append(vals, ps.Px[i])
			}
		}
		var mean float64
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		return math.Sqrt(ss/float64(len(vals))) / mean
	}
	if sp, sl := spread(peak), spread(s.Config().Steps-1); sp >= sl {
		t.Fatalf("beam1 relative spread at peak (%g) not below final (%g)", sp, sl)
	}
}

func TestSuprathermalTailSpansDecades(t *testing.T) {
	s, _ := New(smallConfig())
	ps, _ := s.Step(10)
	// Hit counts for decade thresholds must decrease by meaningful factors:
	// this is what the paper's conditional-histogram sweep relies on.
	counts := map[float64]int{}
	for _, thr := range []float64{1e8, 1e9, 1e10} {
		for _, px := range ps.Px {
			if px > thr {
				counts[thr]++
			}
		}
	}
	if !(counts[1e8] > counts[1e9] && counts[1e9] > counts[1e10] && counts[1e10] > 0) {
		t.Fatalf("tail not spanning decades: %v", counts)
	}
}

func TestDim3PopulatesZ(t *testing.T) {
	cfg := smallConfig()
	cfg.Dim = 3
	s, _ := New(cfg)
	ps, _ := s.Step(20)
	var nonzero int
	for _, z := range ps.Z {
		if z != 0 {
			nonzero++
		}
	}
	if nonzero < ps.N()/2 {
		t.Fatalf("3D run has only %d/%d nonzero z", nonzero, ps.N())
	}
	// 2D run keeps z and pz zero.
	s2, _ := New(smallConfig())
	ps2, _ := s2.Step(20)
	for i := range ps2.Z {
		if ps2.Z[i] != 0 || ps2.Pz[i] != 0 {
			t.Fatal("2D run has nonzero z/pz")
		}
	}
}

func TestTrackingConsistency(t *testing.T) {
	// A particle's trajectory queried at two steps via different Step()
	// calls must agree with a fresh simulation instance: tracking is pure.
	s, _ := New(smallConfig())
	psA, _ := s.Step(20)
	fresh, _ := New(smallConfig())
	psB, _ := fresh.Step(20)
	if psA.N() != psB.N() {
		t.Fatal("instances disagree")
	}
	for i := range psA.ID {
		if psA.Px[i] != psB.Px[i] {
			t.Fatal("trajectory not a pure function of (id, t)")
		}
	}
}

func TestWriteDataset(t *testing.T) {
	cfg := smallConfig()
	cfg.Steps = 4
	cfg.BackgroundPerStep = 500
	cfg.BeamParticles = 20
	dir := t.TempDir()
	var progressCalls int
	ds, err := WriteDataset(dir, cfg, WriteOptions{
		Index:    fastbit.IndexOptions{Bins: 16},
		Progress: func(step, total, particles int) { progressCalls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if progressCalls != 4 {
		t.Fatalf("progress called %d times", progressCalls)
	}
	for step := 0; step < 4; step++ {
		if !ds.HasIndex(step) {
			t.Fatalf("step %d missing index", step)
		}
		ls, err := fastbit.OpenLazy(ds.IndexPath(step))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range ls.Columns() {
			if _, err := ls.Column(name); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if _, err := ls.IDIndex(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		f, err := ds.OpenStep(step)
		if err != nil {
			t.Fatal(err)
		}
		if ls.N() != f.Rows() {
			t.Fatalf("step %d: index N %d != rows %d", step, ls.N(), f.Rows())
		}
		for _, v := range ds.Meta.Variables {
			if !f.HasColumn(v) {
				t.Fatalf("step %d missing column %q", step, v)
			}
		}
		f.Close()
		ls.Close()
	}
}

func TestWriteDatasetSkipIndex(t *testing.T) {
	cfg := smallConfig()
	cfg.Steps = 2
	cfg.BackgroundPerStep = 200
	cfg.BeamParticles = 5
	ds, err := WriteDataset(t.TempDir(), cfg, WriteOptions{SkipIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if ds.HasIndex(0) {
		t.Fatal("index written despite SkipIndex")
	}
}

func TestWriteDatasetBadIndexVar(t *testing.T) {
	cfg := smallConfig()
	cfg.Steps = 2
	cfg.BackgroundPerStep = 100
	if _, err := WriteDataset(t.TempDir(), cfg, WriteOptions{IndexVars: []string{"nope"}}); err == nil {
		t.Fatal("unknown index var accepted")
	}
}

func TestWriteDatasetBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Steps = 0
	if _, err := WriteDataset(t.TempDir(), cfg, WriteOptions{}); err == nil {
		t.Fatal("bad config accepted")
	}
}
