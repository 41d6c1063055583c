package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/report"
)

// runScale reproduces the paper's parallel scalability study on a Cray
// XT4 (Section V-C, Figs. 14–17):
//
//	-exp hist   parallel histogram computation: timings (Fig. 14) and
//	            strong-scaling speedups (Fig. 15)
//	-exp track  parallel particle tracking: timings (Fig. 16) and
//	            speedups (Fig. 17)
//	-exp all    both
//
// Like the paper, timesteps are statically assigned to nodes in a strided
// fashion and nodes work independently. Per-timestep task durations are
// measured once (serially, for clean numbers) and the completion time for
// each node count is the makespan of its assignment — a model of a
// distributed-memory machine with independent nodes, evaluated for 1 to
// 100 nodes regardless of local core count. (Real multi-process execution
// is the shard fleet: qserve -role shard/frontend, measured by bench/.)
func runScale(args []string) error {
	fs, data := flags("scale")
	var (
		exp       = fs.String("exp", "all", "hist | track | all")
		nodesCSV  = fs.String("nodes", "1,2,5,10,20,50,100", "node counts to evaluate")
		bins      = fs.Int("bins", 1024, "histogram bins per axis")
		trackHits = fs.Int("track-hits", 500, "target particle count for the tracking study")
		bwMBs     = fs.Float64("io-bandwidth", 0, "modelled per-node I/O bandwidth in MB/s (0 = off)")
		seekMs    = fs.Float64("io-seek", 0, "modelled per-seek latency in ms")
		assign    = fs.String("assign", "strided", "strided | blocked timestep assignment")
		schedules = fs.Bool("schedules", false, "also compare static/dynamic/LPT scheduling (ablation)")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	src, err := openData(fs, data, args)
	if err != nil {
		return err
	}
	nodes, err := parseNodes(*nodesCSV)
	if err != nil {
		return err
	}
	s := &scaleStudy{
		src:       src,
		nodes:     nodes,
		bins:      *bins,
		assign:    cluster.Strided,
		schedules: *schedules,
		model: cluster.IOModel{
			BandwidthBytesPerSec: *bwMBs * 1e6,
			SeekLatency:          time.Duration(*seekMs * float64(time.Millisecond)),
		},
	}
	switch *assign {
	case "strided":
	case "blocked":
		s.assign = cluster.Blocked
	default:
		return fmt.Errorf("unknown assignment %q", *assign)
	}
	tables, err := s.run(*exp, *trackHits)
	if err != nil {
		return err
	}
	return emit(*csv, tables...)
}

// scaleStudy is one configuration of the modelled parallel study.
type scaleStudy struct {
	src       *fastquery.Source
	nodes     []int
	bins      int
	assign    func(nTasks, nodes int) cluster.Assignment
	schedules bool // add the static/dynamic/LPT scheduling ablation
	model     cluster.IOModel
}

// run runs the named experiment ("hist", "track" or "all").
func (s *scaleStudy) run(exp string, trackHits int) ([]*report.Table, error) {
	switch exp {
	case "hist":
		return s.hist()
	case "track":
		return s.track(trackHits)
	case "all":
		h, err := s.hist()
		if err != nil {
			return nil, err
		}
		t, err := s.track(trackHits)
		return append(h, t...), err
	}
	return nil, fmt.Errorf("unknown experiment %q", exp)
}

// histPairs is the paper's workload: five histogram pairs over the
// position and momentum fields per timestep.
func histPairs(bins int) []histogram.Spec2D {
	return []histogram.Spec2D{
		histogram.NewSpec2D("x", "y", bins, bins),
		histogram.NewSpec2D("y", "z", bins, bins),
		histogram.NewSpec2D("px", "py", bins, bins),
		histogram.NewSpec2D("py", "pz", bins, bins),
		histogram.NewSpec2D("x", "px", bins, bins),
	}
}

// variant is one measured curve: a name and its per-timestep task.
type variant struct {
	name string
	task func(st *fastquery.Step) (int, error) // returns the task's op count
	// ablation, when set, names this curve in the scheduling ablation.
	ablation string
}

// curves measures each variant's per-timestep tasks serially and models
// the completion time at every node count.
func (s *scaleStudy) curves(title, speedupTitle string, vs []variant) ([]*report.Table, error) {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.name
	}
	timing := report.NewTable(title, append([]string{"nodes"}, names...)...)
	speedup := report.NewTable(speedupTitle, append([]string{"nodes"}, names...)...)
	curves := make([][]cluster.ScalingPoint, len(vs))
	var ablated []cluster.Result
	var subject string
	for i, v := range vs {
		tasks := make([]cluster.Task, s.src.Steps())
		for t := range tasks {
			t := t
			tasks[t] = cluster.Task{Step: t, Run: func() (uint64, int, error) {
				st, err := s.src.OpenStep(t)
				if err != nil {
					return 0, 0, err
				}
				defer st.Close()
				ops, err := v.task(st)
				return st.IOBytes(), ops, err
			}}
		}
		results, err := cluster.RunSerial(tasks, s.model)
		if err != nil {
			return nil, err
		}
		curves[i] = cluster.StrongScaling(results, s.nodes, s.assign)
		if v.ablation != "" {
			ablated, subject = results, v.ablation
		}
	}
	for row, n := range s.nodes {
		tCells := []string{fmt.Sprintf("%d", n)}
		sCells := []string{fmt.Sprintf("%d", n)}
		for _, curve := range curves {
			tCells = append(tCells, report.Seconds(curve[row].Time))
			sCells = append(sCells, fmt.Sprintf("%.2f", curve[row].Speedup))
		}
		timing.AddRow(tCells...)
		speedup.AddRow(sCells...)
	}
	out := []*report.Table{timing, speedup}
	if s.schedules {
		sched := report.NewTable("Ablation — scheduling strategies, "+subject,
			"nodes", "strided_s", "blocked_s", "dynamic_s", "lpt_s")
		for _, cmp := range cluster.CompareSchedules(ablated, s.nodes) {
			sched.AddRow(fmt.Sprintf("%d", cmp.Nodes),
				report.Seconds(cmp.Strided), report.Seconds(cmp.Blocked),
				report.Seconds(cmp.Dynamic), report.Seconds(cmp.LPT))
		}
		out = append(out, sched)
	}
	return out, nil
}

// hist is Figs. 14/15: five histogram pairs per timestep, unconditional
// and conditional, on both backends.
func (s *scaleStudy) hist() ([]*report.Table, error) {
	// A high-momentum cut like the paper's px > 7e10, derived from the
	// data so scaled datasets keep a comparable selectivity.
	_, hi, err := varRange(s.src, s.src.Steps()-1, "px")
	if err != nil {
		return nil, err
	}
	thr := 0.6 * hi
	cond := &query.Compare{Var: "px", Op: query.GT, Value: thr}
	histTask := func(cond query.Expr, b fastquery.Backend) func(*fastquery.Step) (int, error) {
		return func(st *fastquery.Step) (int, error) {
			for _, spec := range histPairs(s.bins) {
				if _, err := st.Histogram2DCtx(context.Background(), cond, spec, b); err != nil {
					return 0, err
				}
			}
			return 2 * len(histPairs(s.bins)), nil
		}
	}
	return s.curves(
		fmt.Sprintf("Fig 14 — parallel histogram computation, %d timesteps, 5 pairs x %dx%d bins (cond: px > %.3g)",
			s.src.Steps(), s.bins, s.bins, thr),
		"Fig 15 — scalability of parallel histogram computation",
		[]variant{
			{"FastBit Uncond.", histTask(nil, fastquery.FastBit), ""},
			{"Custom Uncond.", histTask(nil, fastquery.Scan), ""},
			{"FastBit Cond.", histTask(cond, fastquery.FastBit), "FastBit conditional histograms"},
			{"Custom Cond.", histTask(cond, fastquery.Scan), ""},
		})
}

// track is Figs. 16/17: locating ~targetHits high-momentum particles by
// identifier in every timestep.
func (s *scaleStudy) track(targetHits int) ([]*report.Table, error) {
	var ids []int64
	var thr float64
	err := withStep(s.src, s.src.Steps()-1, func(st *fastquery.Step) error {
		k := uint64(targetHits)
		if k >= st.Rows() {
			k = st.Rows() / 2
		}
		thresholds, err := hitThresholds(st, []uint64{k})
		if err != nil {
			return err
		}
		thr = thresholds[k]
		ids, err = st.SelectIDsCtx(context.Background(), &query.Compare{Var: "px", Op: query.GT, Value: thr}, fastquery.FastBit)
		return err
	})
	if err != nil {
		return nil, err
	}
	findTask := func(b fastquery.Backend) func(*fastquery.Step) (int, error) {
		return func(st *fastquery.Step) (int, error) {
			_, err := st.FindIDsCtx(context.Background(), ids, b)
			return 1, err
		}
	}
	return s.curves(
		fmt.Sprintf("Fig 16 — parallel particle tracking, %d particles (px > %.3g) over %d timesteps",
			len(ids), thr, s.src.Steps()),
		"Fig 17 — scalability of parallel particle tracking",
		[]variant{
			{"FastBit", findTask(fastquery.FastBit), "FastBit particle tracking"},
			{"Custom", findTask(fastquery.Scan), ""},
		})
}

func parseNodes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad node count %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no node counts in %q", s)
	}
	return out, nil
}
