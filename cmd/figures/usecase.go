package main

import (
	"flag"
	"fmt"
	"image/color"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runUsecase is the paper's complete Section IV use case on a synthetic
// run it generates itself: beam selection at a late timestep, assessment
// at the momentum peak, back-tracing to the injection timesteps,
// refinement with a second spatial threshold, and (with -3d) the
// two-stage 3D selection of Fig. 10.
func runUsecase(args []string) error {
	fs := flag.NewFlagSet("figures usecase", flag.ExitOnError)
	var (
		out    = fs.String("out", "", "working directory (default: a temp dir)")
		use3D  = fs.Bool("3d", false, "run the 3D analysis variant")
		keepPx = fs.Float64("quantile", 0.995, "beam selection quantile in px")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	dir := *out
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "lwfa-beam-*"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	cfg := sim.DefaultConfig()
	cfg.Steps = 24
	cfg.BackgroundPerStep = 40000
	cfg.BeamParticles = 400
	vars := []string{"x", "y", "px", "py"}
	if *use3D {
		cfg.Dim = 3
		vars = []string{"x", "y", "z", "px", "py", "pz"}
	}
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	dataDir := filepath.Join(dir, "data")
	if _, err := sim.WriteDataset(dataDir, cfg, sim.WriteOptions{
		Index: fastbit.IndexOptions{Bins: 192},
	}); err != nil {
		return err
	}
	src, err := fastquery.Open(dataDir)
	if err != nil {
		return err
	}
	last, peak, inject := src.Steps()-1, s.PeakStep(), s.InjectionStep()
	save := func(name, what string, c *render.Canvas, err error) error {
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name)
		if err := c.SavePNG(path); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s)\n", path, what)
		return nil
	}

	// --- Beam selection (Section IV-A / Fig. 5) -------------------------
	// Threshold px at the last timestep; like the paper's px > 8.872e10,
	// chosen here as a high quantile so scaled runs stay comparable.
	all, err := selectValues(src, last, query.MustParse("px > -1e300"), "px")
	if err != nil {
		return err
	}
	px := all[0]
	sort.Float64s(px)
	thr := px[min(int(*keepPx*float64(len(px))), len(px)-1)]
	queryStr := fmt.Sprintf("px > %g", thr)
	if *use3D {
		// Fig. 10: first remove the background, then cut on px and x to
		// isolate the first wake period.
		xCut, err := firstBucketCut(src, last)
		if err != nil {
			return err
		}
		queryStr = fmt.Sprintf("px > %g && x > %g", thr, xCut)
	}
	beamExpr, err := query.Parse(queryStr)
	if err != nil {
		return err
	}
	beamIDs, beam, err := selectBeam(src, last, beamExpr, fastquery.FastBit)
	if err != nil {
		return err
	}
	fmt.Printf("beam selection at t=%d with %q: %d particles\n", last, queryStr, len(beamIDs))
	if len(beamIDs) == 0 {
		return fmt.Errorf("selection empty; lower -quantile")
	}
	c, err := focusPlot(src, last, vars, defaultStyle(), layer{beamExpr, focusColor})
	if err := save("beam_selection.png", "context + focus parallel coordinates", c, err); err != nil {
		return err
	}

	// --- Beam assessment (Section IV-B) ---------------------------------
	// Trace the selected particles and compare momentum at the peak and
	// the final step: the first beam outruns the wave and decelerates.
	tracks, err := trackIDs(src, beamIDs, inject-1, last, fastquery.FastBit)
	if err != nil {
		return err
	}
	fmt.Printf("traced %d particles over t=[%d,%d]\n", len(tracks), inject-1, last)
	var decel int
	for _, tr := range tracks {
		pAtPeak, ok1 := tr.pxAt(peak)
		pAtLast, ok2 := tr.pxAt(last)
		if ok1 && ok2 && pAtLast < pAtPeak {
			decel++
		}
	}
	fmt.Printf("beam assessment: %d/%d particles decelerated after the t=%d dephasing peak\n",
		decel, len(tracks), peak)

	// --- Beam formation (Section IV-C) -----------------------------------
	// When did the beam particles enter the simulation window?
	entries := map[int]int{}
	for _, tr := range tracks {
		entries[tr.Steps[0]]++
	}
	steps := make([]int, 0, len(entries))
	for t := range entries {
		steps = append(steps, t)
	}
	sort.Ints(steps)
	fmt.Println("beam formation (injection census):")
	for _, t := range steps {
		fmt.Printf("  t=%-3d %d particles enter\n", t, entries[t])
	}

	// --- Beam refinement (Section IV-D / Fig. 8) -------------------------
	// Re-select the beam's identifiers just after injection with an extra
	// x threshold to keep only the first wake period.
	at := inject + 1
	fids := make([]float64, len(beamIDs))
	for i, id := range beamIDs {
		fids[i] = float64(id)
	}
	atBeam := query.NewIn("id", fids)
	xCut, err := firstBucketCut(src, at)
	if err != nil {
		return err
	}
	refined := &query.And{Terms: []query.Expr{atBeam, &query.Compare{Var: "x", Op: query.GT, Value: xCut}}}
	var found, kept int
	err = withStep(src, at, func(st *fastquery.Step) error {
		pos, err := st.FindIDs(beamIDs, fastquery.FastBit)
		if err != nil {
			return err
		}
		n, err := st.Count(refined, fastquery.FastBit)
		found, kept = len(pos), int(n)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("beam refinement at t=%d: %d of %d beam particles lie in the first wake period (x > %.4g)\n",
		at, kept, found, xCut)
	// Fig. 8 style overlay: whole beam in red, refined subset in green,
	// over the full-data context.
	c, err = focusPlot(src, at, vars, defaultStyle(),
		layer{atBeam, color.RGBA{230, 70, 70, 255}},
		layer{refined, color.RGBA{80, 220, 120, 255}})
	if err := save("beam_refinement.png", "refined subset over beam context", c, err); err != nil {
		return err
	}

	// --- Pseudocolor views (Figs. 5b, 6) ----------------------------------
	c, err = scatterPlot(src, last, "x", "y", "px", beamExpr)
	if err := save("beam_pseudocolor.png", "pseudocolor beam over gray context", c, err); err != nil {
		return err
	}

	// --- Particle traces (Figs. 7, 8c) ------------------------------------
	// World lines of a manageable subset, coloured by momentum.
	c, err = tracePlot(src, tracks[:min(len(tracks), 60)], last)
	if err := save("beam_traces.png", "particle traces coloured by px", c, err); err != nil {
		return err
	}

	// --- Quantitative coupling (the paper's future-work direction) -------
	quality, err := stats.Beam(beam[0], beam[1], beam[2])
	if err != nil {
		return err
	}
	fmt.Printf("beam quality at t=%d: mean px %.3e, energy spread %.2f%%, rms y %.3e, emittance %.3e\n",
		last, quality.MeanPx, 100*quality.EnergySpread, quality.RMSy, quality.Emittance)
	histSteps, history, err := beamHistory(tracks, inject, last)
	if err != nil {
		return err
	}
	fmt.Println("beam evolution (mean px / energy spread per step):")
	for i, t := range histSteps {
		q := history[i]
		fmt.Printf("  t=%-3d px %.3e  spread %5.2f%%  n=%d\n", t, q.MeanPx, 100*q.EnergySpread, q.N)
	}
	return nil
}

// firstBucketCut returns an x threshold separating the first wake period
// (behind the window's trailing edge) from the rest, placed one wake
// wavelength from the right edge of the window.
func firstBucketCut(src *fastquery.Source, t int) (float64, error) {
	lo, hi, err := varRange(src, t, "x")
	return hi - 0.30*(hi-lo), err
}
