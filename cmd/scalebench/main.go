// Command scalebench reproduces the paper's parallel scalability study on
// a Cray XT4 (Section V-C, Figures 14-17):
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
// each node count is the makespan of its assignment — a faithful model of
// a distributed-memory machine with independent nodes, evaluated for 1 to
// 100 nodes regardless of local core count. (Real multi-process execution
// is the shard fleet: qserve -role shard/frontend, measured by bench/.)
//
// Usage:
//
//	lwfagen -out /tmp/lwfa -steps 30 -particles 200000
//	scalebench -data /tmp/lwfa -exp all
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalebench: ")

	var (
		data      = flag.String("data", "", "dataset directory (required)")
		exp       = flag.String("exp", "all", "hist | track | all")
		nodesCSV  = flag.String("nodes", "1,2,5,10,20,50,100", "node counts to evaluate")
		bins      = flag.Int("bins", 1024, "histogram bins per axis")
		trackHits = flag.Int("track-hits", 500, "target particle count for the tracking study")
		bwMBs     = flag.Float64("io-bandwidth", 0, "modelled per-node I/O bandwidth in MB/s (0 = off)")
		seekMs    = flag.Float64("io-seek", 0, "modelled per-seek latency in ms")
		assignStr = flag.String("assign", "strided", "strided | blocked timestep assignment")
		schedules = flag.Bool("schedules", false, "also compare static/dynamic/LPT scheduling (ablation)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	flag.Parse()
	if *data == "" {
		flag.Usage()
		os.Exit(2)
	}
	nodes, err := parseNodes(*nodesCSV)
	if err != nil {
		log.Fatal(err)
	}
	src, err := fastquery.Open(*data)
	if err != nil {
		log.Fatal(err)
	}
	assign := cluster.Strided
	if *assignStr == "blocked" {
		assign = cluster.Blocked
	} else if *assignStr != "strided" {
		log.Fatalf("unknown assignment %q", *assignStr)
	}
	b := &bench{
		src:       src,
		nodes:     nodes,
		bins:      *bins,
		csv:       *csv,
		assign:    assign,
		schedules: *schedules,
		model: cluster.IOModel{
			BandwidthBytesPerSec: *bwMBs * 1e6,
			SeekLatency:          time.Duration(*seekMs * float64(time.Millisecond)),
		},
	}
	switch *exp {
	case "hist":
		err = b.histStudy()
	case "track":
		err = b.trackStudy(*trackHits)
	case "all":
		if err = b.histStudy(); err == nil {
			err = b.trackStudy(*trackHits)
		}
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
	if err != nil {
		log.Fatal(err)
	}
}

type bench struct {
	src       *fastquery.Source
	nodes     []int
	bins      int
	csv       bool
	assign    func(nTasks, nodes int) cluster.Assignment
	schedules bool
	model     cluster.IOModel
}

// scheduleTable emits the static/dynamic/LPT scheduling comparison.
func (b *bench) scheduleTable(title string, results []cluster.Result) error {
	table := report.NewTable(title, "nodes", "strided_s", "blocked_s", "dynamic_s", "lpt_s")
	for _, cmp := range cluster.CompareSchedules(results, b.nodes) {
		table.AddRow(fmt.Sprintf("%d", cmp.Nodes),
			report.Seconds(cmp.Strided), report.Seconds(cmp.Blocked),
			report.Seconds(cmp.Dynamic), report.Seconds(cmp.LPT))
	}
	return b.emit(table)
}

func (b *bench) emit(t *report.Table) error {
	if b.csv {
		return t.FprintCSV(os.Stdout)
	}
	return t.Fprint(os.Stdout)
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

// condThreshold picks the conditional threshold like the paper's
// px > 7e10: a high-momentum cut. It is derived from the data so scaled
// datasets keep a comparable selectivity.
func (b *bench) condThreshold() (float64, error) {
	st, err := b.src.OpenStep(b.src.Steps() - 1)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	_, hi, err := st.MinMax("px")
	if err != nil {
		return 0, err
	}
	return 0.6 * hi, nil
}

// histTasks builds the per-timestep histogram tasks.
func (b *bench) histTasks(cond query.Expr, backend fastquery.Backend) []cluster.Task {
	tasks := make([]cluster.Task, b.src.Steps())
	for t := 0; t < b.src.Steps(); t++ {
		t := t
		tasks[t] = cluster.Task{Step: t, Run: func() (uint64, int, error) {
			st, err := b.src.OpenStep(t)
			if err != nil {
				return 0, 0, err
			}
			defer st.Close()
			for _, spec := range histPairs(b.bins) {
				if _, err := st.Histogram2D(cond, spec, backend); err != nil {
					return 0, 0, err
				}
			}
			return st.IOBytes(), 2 * len(histPairs(b.bins)), nil
		}}
	}
	return tasks
}

func (b *bench) histStudy() error {
	thr, err := b.condThreshold()
	if err != nil {
		return err
	}
	cond := &query.Compare{Var: "px", Op: query.GT, Value: thr}

	variants := []struct {
		name    string
		cond    query.Expr
		backend fastquery.Backend
	}{
		{"FastBit Uncond.", nil, fastquery.FastBit},
		{"Custom Uncond.", nil, fastquery.Scan},
		{"FastBit Cond.", cond, fastquery.FastBit},
		{"Custom Cond.", cond, fastquery.Scan},
	}

	timing := report.NewTable(
		fmt.Sprintf("Fig 14 — parallel histogram computation, %d timesteps, 5 pairs x %dx%d bins (cond: px > %.3g)",
			b.src.Steps(), b.bins, b.bins, thr),
		append([]string{"nodes"}, variantNames(variants)...)...)
	speedup := report.NewTable(
		"Fig 15 — scalability of parallel histogram computation",
		append([]string{"nodes"}, variantNames(variants)...)...)

	curves := make([][]cluster.ScalingPoint, len(variants))
	var fastbitCondResults []cluster.Result
	for i, v := range variants {
		results, err := cluster.RunSerial(b.histTasks(v.cond, v.backend), b.model)
		if err != nil {
			return err
		}
		curves[i] = cluster.StrongScaling(results, b.nodes, b.assign)
		if v.name == "FastBit Cond." {
			fastbitCondResults = results
		}
	}
	fillScalingTables(timing, speedup, b.nodes, curves)
	if err := b.emit(timing); err != nil {
		return err
	}
	if err := b.emit(speedup); err != nil {
		return err
	}
	if b.schedules {
		return b.scheduleTable("Ablation — scheduling strategies, FastBit conditional histograms", fastbitCondResults)
	}
	return nil
}

// trackIDSet selects ~targetHits particles at the last timestep.
func (b *bench) trackIDSet(targetHits int) ([]int64, float64, error) {
	st, err := b.src.OpenStep(b.src.Steps() - 1)
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	px, err := st.ReadColumn("px")
	if err != nil {
		return nil, 0, err
	}
	sorted := append([]float64(nil), px...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	k := targetHits
	if k >= len(sorted) {
		k = len(sorted) / 2
	}
	thr := (sorted[k-1] + sorted[k]) / 2
	ids, err := st.SelectIDs(&query.Compare{Var: "px", Op: query.GT, Value: thr}, fastquery.FastBit)
	if err != nil {
		return nil, 0, err
	}
	return ids, thr, nil
}

func (b *bench) trackTasks(ids []int64, backend fastquery.Backend) []cluster.Task {
	tasks := make([]cluster.Task, b.src.Steps())
	for t := 0; t < b.src.Steps(); t++ {
		t := t
		tasks[t] = cluster.Task{Step: t, Run: func() (uint64, int, error) {
			st, err := b.src.OpenStep(t)
			if err != nil {
				return 0, 0, err
			}
			defer st.Close()
			if _, err := st.FindIDs(ids, backend); err != nil {
				return 0, 0, err
			}
			return st.IOBytes(), 1, nil
		}}
	}
	return tasks
}

func (b *bench) trackStudy(targetHits int) error {
	ids, thr, err := b.trackIDSet(targetHits)
	if err != nil {
		return err
	}
	variants := []struct {
		name    string
		backend fastquery.Backend
	}{
		{"FastBit", fastquery.FastBit},
		{"Custom", fastquery.Scan},
	}
	timing := report.NewTable(
		fmt.Sprintf("Fig 16 — parallel particle tracking, %d particles (px > %.3g) over %d timesteps",
			len(ids), thr, b.src.Steps()),
		"nodes", "FastBit", "Custom")
	speedup := report.NewTable("Fig 17 — scalability of parallel particle tracking",
		"nodes", "FastBit", "Custom")

	curves := make([][]cluster.ScalingPoint, len(variants))
	var fastbitResults []cluster.Result
	for i, v := range variants {
		results, err := cluster.RunSerial(b.trackTasks(ids, v.backend), b.model)
		if err != nil {
			return err
		}
		curves[i] = cluster.StrongScaling(results, b.nodes, b.assign)
		if v.name == "FastBit" {
			fastbitResults = results
		}
	}
	fillScalingTables(timing, speedup, b.nodes, curves)
	if err := b.emit(timing); err != nil {
		return err
	}
	if err := b.emit(speedup); err != nil {
		return err
	}
	if b.schedules {
		return b.scheduleTable("Ablation — scheduling strategies, FastBit particle tracking", fastbitResults)
	}
	return nil
}

func variantNames[T any](vs []struct {
	name    string
	cond    query.Expr
	backend T
}) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.name
	}
	return out
}

func fillScalingTables(timing, speedup *report.Table, nodes []int, curves [][]cluster.ScalingPoint) {
	for row, n := range nodes {
		tCells := []string{fmt.Sprintf("%d", n)}
		sCells := []string{fmt.Sprintf("%d", n)}
		for _, curve := range curves {
			tCells = append(tCells, report.Seconds(curve[row].Time))
			sCells = append(sCells, fmt.Sprintf("%.2f", curve[row].Speedup))
		}
		timing.AddRow(tCells...)
		speedup.AddRow(sCells...)
	}
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
