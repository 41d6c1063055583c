package main

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/fastquery"
	"repro/internal/query"
	"repro/internal/report"
	"repro/internal/stats"
)

// track is one particle's trajectory; the value slices are parallel to
// Steps, which hold only the steps the particle was in the window.
type track struct {
	ID                  int64
	Steps               []int
	X, Y, Z, Px, Py, Pz []float64
}

// trackIDs follows an identifier set through steps [from, to]: per step,
// the index's identifier lookup finds the records, and only those records'
// identifiers and phase-space coordinates are read — the operation that
// took the paper's collaborators hours with scripts. Tracks come back
// sorted by identifier.
func trackIDs(src *fastquery.Source, ids []int64, from, to int, b fastquery.Backend) ([]*track, error) {
	if from > to {
		from, to = to, from
	}
	if from < 0 || to >= src.Steps() {
		return nil, fmt.Errorf("step range [%d,%d] outside [0,%d)", from, to, src.Steps())
	}
	ctx := context.Background()
	byID := map[int64]*track{}
	for t := from; t <= to; t++ {
		err := withStep(src, t, func(st *fastquery.Step) error {
			pos, err := st.FindIDsCtx(ctx, ids, b)
			if err != nil {
				return err
			}
			found, err := st.IDsAtCtx(ctx, pos)
			if err != nil {
				return err
			}
			var vals [6][]float64
			for i, v := range []string{"x", "y", "z", "px", "py", "pz"} {
				if vals[i], err = st.ValuesAtCtx(ctx, v, pos); err != nil {
					return err
				}
			}
			for j, id := range found {
				tr := byID[id]
				if tr == nil {
					tr = &track{ID: id}
					byID[id] = tr
				}
				tr.Steps = append(tr.Steps, t)
				tr.X = append(tr.X, vals[0][j])
				tr.Y = append(tr.Y, vals[1][j])
				tr.Z = append(tr.Z, vals[2][j])
				tr.Px = append(tr.Px, vals[3][j])
				tr.Py = append(tr.Py, vals[4][j])
				tr.Pz = append(tr.Pz, vals[5][j])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]*track, 0, len(byID))
	for _, tr := range byID {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// selectBeam selects step t's records matching e and returns their
// identifiers and their px, py and y values, the inputs of stats.Beam.
func selectBeam(src *fastquery.Source, t int, e query.Expr, b fastquery.Backend) (ids []int64, pxPyY [][]float64, err error) {
	err = withStep(src, t, func(st *fastquery.Step) error {
		pos, err := st.Select(e, b)
		if err != nil {
			return err
		}
		if ids, err = st.IDsAtCtx(context.Background(), pos); err != nil {
			return err
		}
		pxPyY = make([][]float64, 3)
		for i, v := range []string{"px", "py", "y"} {
			if pxPyY[i], err = st.ValuesAt(v, pos); err != nil {
				return err
			}
		}
		return nil
	})
	return ids, pxPyY, err
}

// pxAt returns a track's momentum at one step.
func (tr *track) pxAt(t int) (float64, bool) {
	for i, s := range tr.Steps {
		if s == t {
			return tr.Px[i], true
		}
	}
	return 0, false
}

// beamHistory computes the beam quality of the tracked particles at every
// step of [from, to] where any of them is present — quantitative beam
// evolution over time, the coupling with traditional analysis the
// paper's conclusion calls for.
func beamHistory(tracks []*track, from, to int) ([]int, []stats.BeamQuality, error) {
	var steps []int
	var quality []stats.BeamQuality
	for t := from; t <= to; t++ {
		var px, py, y []float64
		for _, tr := range tracks {
			for i, s := range tr.Steps {
				if s == t {
					px = append(px, tr.Px[i])
					py = append(py, tr.Py[i])
					y = append(y, tr.Y[i])
					break
				}
			}
		}
		if len(px) == 0 {
			continue
		}
		q, err := stats.Beam(px, py, y)
		if err != nil {
			return nil, nil, err
		}
		steps = append(steps, t)
		quality = append(quality, q)
	}
	if len(steps) == 0 {
		return nil, nil, fmt.Errorf("selection absent from steps [%d,%d]", from, to)
	}
	return steps, quality, nil
}

// writeTracksCSV exports trajectories as long-format rows (id, step, x,
// y, z, px, py, pz) for analysis in external tools.
func writeTracksCSV(w io.Writer, tracks []*track) error {
	cw := csv.NewWriter(w)
	cw.Write([]string{"id", "step", "x", "y", "z", "px", "py", "pz"}) //nolint:errcheck // cw.Error below
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, tr := range tracks {
		for i, t := range tr.Steps {
			cw.Write([]string{ //nolint:errcheck // cw.Error below
				strconv.FormatInt(tr.ID, 10), strconv.Itoa(t),
				f(tr.X[i]), f(tr.Y[i]), f(tr.Z[i]), f(tr.Px[i]), f(tr.Py[i]), f(tr.Pz[i]),
			})
		}
	}
	cw.Flush()
	return cw.Error()
}

// runTrack selects particles with a compound range query at one step,
// traces them across the run by identifier (paper Section IV) and
// reports their beam quality per step.
func runTrack(args []string) error {
	fs, data := flags("track")
	var (
		step    = fs.Int("step", -1, "selection timestep (-1 = last)")
		q       = fs.String("query", "", "selection query (required)")
		refine  = fs.String("refine", "", "optional refinement ANDed onto the selection")
		from    = fs.Int("from", 0, "first timestep to trace")
		to      = fs.Int("to", -1, "last timestep to trace (-1 = last)")
		backend = fs.String("backend", "fastbit", "fastbit | custom")
		maxShow = fs.Int("show", 10, "how many tracks to print")
		csvPath = fs.String("csv", "", "write full trajectories to this CSV file")
	)
	src, err := openData(fs, data, args)
	if err != nil {
		return err
	}
	if *q == "" {
		fs.Usage()
		os.Exit(2)
	}
	b, err := parseBackend(*backend)
	if err != nil {
		return err
	}
	expr, err := query.Parse(*q)
	if err != nil {
		return err
	}
	label := *q
	if *refine != "" {
		r, err := query.Parse(*refine)
		if err != nil {
			return err
		}
		expr = &query.And{Terms: []query.Expr{expr, r}}
		label = expr.String()
	}
	selStep, end := *step, *to
	if selStep < 0 {
		selStep = src.Steps() - 1
	}
	if end < 0 {
		end = src.Steps() - 1
	}

	start := time.Now()
	ids, sel, err := selectBeam(src, selStep, expr, b)
	if err != nil {
		return err
	}
	fmt.Printf("selection %q at t=%d: %d particles (%.3fs)\n", expr, selStep, len(ids), time.Since(start).Seconds())
	if len(ids) == 0 {
		return nil
	}

	start = time.Now()
	tracks, err := trackIDs(src, ids, *from, end, b)
	if err != nil {
		return err
	}
	fmt.Printf("traced %d particles over t=[%d,%d] (%.3fs)\n", len(tracks), *from, end, time.Since(start).Seconds())
	for i, tr := range tracks {
		if i >= *maxShow {
			fmt.Printf("... and %d more\n", len(tracks)-i)
			break
		}
		n := len(tr.Steps) - 1
		fmt.Printf("id %-10d steps %d..%d  px %.3e -> %.3e  x %.4e -> %.4e\n",
			tr.ID, tr.Steps[0], tr.Steps[n], tr.Px[0], tr.Px[n], tr.X[0], tr.X[n])
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := writeTracksCSV(f, tracks); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}

	now, err := stats.Beam(sel[0], sel[1], sel[2])
	if err != nil {
		return err
	}
	fmt.Printf("selection %q at t=%d: %d particles, mean px %.4e, spread %.2f%%, rms y %.3e, emittance %.3e\n",
		label, selStep, now.N, now.MeanPx, 100*now.EnergySpread, now.RMSy, now.Emittance)
	lo, hi := min(*from, end), max(*from, end)
	steps, quality, err := beamHistory(tracks, lo, hi)
	if err != nil {
		return err
	}
	table := report.NewTable(
		fmt.Sprintf("Beam evolution, %d particles traced over t=[%d,%d]", len(ids), *from, end),
		"step", "n", "mean_px", "energy_spread", "rms_y", "emittance")
	for i, t := range steps {
		qual := quality[i]
		table.AddRow(
			fmt.Sprintf("%d", t),
			fmt.Sprintf("%d", qual.N),
			fmt.Sprintf("%.6e", qual.MeanPx),
			fmt.Sprintf("%.6f", qual.EnergySpread),
			fmt.Sprintf("%.6e", qual.RMSy),
			fmt.Sprintf("%.6e", qual.Emittance),
		)
	}
	return emit(false, table)
}
