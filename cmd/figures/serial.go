package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/report"
)

// runSerial reproduces the paper's serial performance study:
//
//	-exp fig11  unconditional 2D histograms vs bin count   (paper Fig. 11)
//	-exp fig12  conditional 2D histograms vs hit count     (paper Fig. 12)
//	-exp fig13  identifier queries vs hit count            (paper Fig. 13)
//	-exp all    all of the above
//
// Each experiment compares the FastBit bitmap-index backend against the
// "Custom" sequential-scan baseline, exactly as the paper's charts do.
// Absolute times depend on the machine and dataset size; the shapes —
// FastBit's insensitivity to bin count, its dominance at low hit counts,
// the crossover for very unselective conditions, and the gap on
// identifier queries — reproduce the paper's.
func runSerial(args []string) error {
	fs, data := flags("serial")
	var (
		step = fs.Int("step", -1, "timestep to benchmark (-1 = middle)")
		exp  = fs.String("exp", "all", "fig11 | fig12 | fig13 | all")
		runs = fs.Int("runs", 3, "repetitions per measurement (median reported)")
		csv  = fs.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	src, err := openData(fs, data, args)
	if err != nil {
		return err
	}
	tables, err := serialStudy(src, *step, *exp, *runs)
	if err != nil {
		return err
	}
	return emit(*csv, tables...)
}

// serialStudy runs the named experiments at step t (-1 = middle step).
func serialStudy(src *fastquery.Source, t int, exp string, runs int) ([]*report.Table, error) {
	studies := map[string]func(*fastquery.Step, int) (*report.Table, error){
		"fig11": fig11, "fig12": fig12, "fig13": fig13,
	}
	names := []string{exp}
	if exp == "all" {
		names = []string{"fig11", "fig12", "fig13"}
	} else if studies[exp] == nil {
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
	if t < 0 {
		t = src.Steps() / 2
	}
	var out []*report.Table
	for _, name := range names {
		err := withStep(src, t, func(st *fastquery.Step) error {
			table, err := studies[name](st, runs)
			out = append(out, table)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fig11: unconditional histograms vs bin count.
func fig11(st *fastquery.Step, runs int) (*report.Table, error) {
	table := report.NewTable(
		fmt.Sprintf("Fig 11 — serial unconditional 2D histograms (x, px), step %d, %d records", st.T(), st.Rows()),
		"bins", "fastbit_regular_s", "fastbit_adaptive_s", "custom_regular_s")
	for _, bins := range []int{32, 64, 128, 256, 512, 1024, 2048} {
		specU := histogram.NewSpec2D("x", "px", bins, bins)
		times, err := histTimes(st, runs, nil, specU)
		if err != nil {
			return nil, err
		}
		table.AddRow(append([]string{fmt.Sprintf("%dx%d", bins, bins)}, times...)...)
	}
	return table, nil
}

// histTimes times one histogram three ways — FastBit uniform, FastBit
// adaptive, scan uniform — as the three timing columns of Figs. 11/12.
func histTimes(st *fastquery.Step, runs int, cond query.Expr, specU histogram.Spec2D) ([]string, error) {
	var out []string
	for _, v := range []struct {
		spec histogram.Spec2D
		b    fastquery.Backend
	}{
		{specU, fastquery.FastBit},
		{specU.WithBinning(histogram.Adaptive), fastquery.FastBit},
		{specU, fastquery.Scan},
	} {
		d, err := report.MedianTime(runs, func() error {
			_, err := st.Histogram2D(cond, v.spec, v.b)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, report.Seconds(d))
	}
	return out, nil
}

// hitThresholds derives px thresholds yielding approximately the target
// hit counts, by sorting the column once (untimed setup).
func hitThresholds(st *fastquery.Step, targets []uint64) (map[uint64]float64, error) {
	px, err := st.ReadColumn("px")
	if err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), px...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	out := map[uint64]float64{}
	for _, k := range targets {
		if k == 0 || k >= uint64(len(sorted)) {
			continue
		}
		out[k] = (sorted[k-1] + sorted[k]) / 2
	}
	return out, nil
}

func hitTargets(n uint64) []uint64 {
	var out []uint64
	for k := uint64(10); k < n; k *= 10 {
		out = append(out, k)
	}
	return append(out, n/2, n*9/10)
}

// fig12: conditional histograms vs hit count at fixed 1024x1024 bins.
func fig12(st *fastquery.Step, runs int) (*report.Table, error) {
	thresholds, err := hitThresholds(st, hitTargets(st.Rows()))
	if err != nil {
		return nil, err
	}
	targets := make([]uint64, 0, len(thresholds))
	for k := range thresholds {
		targets = append(targets, k)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	table := report.NewTable(
		fmt.Sprintf("Fig 12 — serial conditional 2D histograms (x, px), 1024x1024 bins, step %d", st.T()),
		"hits", "threshold", "fastbit_regular_s", "fastbit_adaptive_s", "custom_regular_s")
	for _, k := range targets {
		thr := thresholds[k]
		cond := &query.Compare{Var: "px", Op: query.GT, Value: thr}
		hits, err := st.Count(cond, fastquery.FastBit)
		if err != nil {
			return nil, err
		}
		times, err := histTimes(st, runs, cond, histogram.NewSpec2D("x", "px", 1024, 1024))
		if err != nil {
			return nil, err
		}
		table.AddRow(append([]string{fmt.Sprintf("%d", hits), fmt.Sprintf("%.4g", thr)}, times...)...)
	}
	return table, nil
}

// fig13: identifier queries vs search-set size.
func fig13(st *fastquery.Step, runs int) (*report.Table, error) {
	all, err := st.ReadIDs()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	table := report.NewTable(
		fmt.Sprintf("Fig 13 — serial identifier queries, step %d, %d records", st.T(), len(all)),
		"set_size", "hits", "fastbit_s", "custom_s", "speedup")
	for _, size := range []int{10, 100, 1000, 10000, 100000, 1000000} {
		if size > len(all) {
			break
		}
		set := make([]int64, size)
		for i := range set {
			set[i] = all[rng.Intn(len(all))]
		}
		var hits int
		fb, err := report.MedianTime(runs, func() error {
			pos, err := st.FindIDs(set, fastquery.FastBit)
			hits = len(pos)
			return err
		})
		if err != nil {
			return nil, err
		}
		cu, err := report.MedianTime(runs, func() error {
			_, err := st.FindIDs(set, fastquery.Scan)
			return err
		})
		if err != nil {
			return nil, err
		}
		speedup := float64(cu) / float64(max(fb, time.Nanosecond))
		table.AddRow(fmt.Sprintf("%d", size), fmt.Sprintf("%d", hits),
			report.Seconds(fb), report.Seconds(cu), fmt.Sprintf("%.1fx", speedup))
	}
	return table, nil
}
