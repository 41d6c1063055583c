// Command bench is the repo benchmark: five traffic workloads against real
// qserve processes, end-to-end metrics from an untraced pass, per-layer
// metrics from a traced one. See README.md; BENCHMARK.json at the root of
// the repo is its contract with the driver.
//
//	bash bench/run.sh --workload explore_local --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh                  # every workload, both passes
//	bash bench/run.sh -selfcheck       # the suite twice, B within bounds of A
//	bash bench/run.sh -quick           # 3 s windows, same metric names
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how often an untraced run sets up: setup_s is the median.
const setupReps = 3

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a driver run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run; empty runs the whole suite")
		seed      = flag.Uint64("seed", 1, "seeds the request streams; servers see only the generated requests")
		seconds   = flag.Int("seconds", runSeconds, "measured window per workload")
		trace     = flag.Int("trace", 0, "1: traced pass, per-layer metrics; 0: untraced pass, end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and fail unless set B is within the bounds of set A")
		quick     = flag.Bool("quick", false, "3 s windows, for smoke use")
		out       = flag.String("out", "", "suite and selfcheck: also write the (first) suite's metrics as JSON here")
		mani      = flag.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it, and exit")
	)
	flag.Parse()
	if *mani {
		buf, err := manifest()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(buf) //nolint:errcheck // stdout
		return
	}
	if *quick {
		*seconds = 3
	}
	trapSignals()
	code := 0
	func() {
		// Sweep the process registry on every way out, a panic included.
		defer killAll()
		switch {
		case *selfcheck:
			code = selfCheck(*seed, *seconds, *out)
		case *name == "":
			code = suite(*seed, *seconds, *out)
		default:
			code = single(defaultPaths(), *name, *seed, *seconds, *trace == 1)
		}
	}()
	os.Exit(code)
}

// single is the driver's unit: one workload, one seed, one pass, one JSON
// object on the last line of stdout.
func single(p paths, name string, seed uint64, seconds int, trace bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	rep, err := execute(p, w, seed, seconds, trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	printMetrics(name, rep, trace)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// execute runs one pass of one workload.
func execute(p paths, w *workload, seed uint64, seconds int, trace bool) (*report, error) {
	if _, err := os.Stat(p.bin("qserve")); err != nil {
		return nil, fmt.Errorf("no server binary at %s: run through bench/run.sh, which builds it", p.bin("qserve"))
	}
	prof, err := ensureDataset(p)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	r := &run{p: p, prof: prof, w: w, seed: seed, window: time.Duration(seconds) * time.Second, trace: trace}
	defer func() {
		if r.fleet != nil {
			r.fleet.stop()
		}
	}()

	// Set-up, repeated: the last repetition's fleet is the one measured.
	reps := setupReps
	if trace {
		reps = 1 // the traced pass does not report setup_s
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if r.fleet != nil {
			r.fleet.stop()
			r.fleet = nil
		}
		d, err := r.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	statsBefore, err := r.stats()
	if err != nil {
		return nil, err
	}
	procBefore, err := r.fleet.sample()
	if err != nil {
		return nil, err
	}
	win := w.Window(r)
	procAfter, err := r.fleet.sample()
	if err != nil {
		return nil, err
	}
	statsAfter, err := r.stats()
	if err != nil {
		return nil, err
	}
	checked, wrong := w.Check(r, win)

	m := &measured{run: r, win: win, setups: setups,
		cpu: procAfter.CPU - procBefore.CPU, hwmKB: procAfter.HWMKB,
		before: statsBefore, after: statsAfter, checked: checked, wrong: wrong}
	if m.disk, m.indexPerRow, err = diskRatio(r.dataDir); err != nil {
		return nil, err
	}
	for _, e := range append(win.Errs, wrong...) {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", w.Name, e)
	}
	rep := &report{Attempted: len(win.Samples) + checked, Metrics: map[string]metricValue{}}
	rep.Failed = len(win.Samples) - win.okCount() + len(wrong)
	if trace {
		// The replays start fleets of their own, the live one in the same
		// scratch directory: the measured fleet goes first.
		r.fleet.stop()
		r.fleet = nil
		layers, err := tracedPass(m)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		for _, d := range perLayer {
			rep.Metrics[d.Name] = metricValue{Value: layers[d.Name], Unit: d.Unit}
		}
	} else {
		e2e := m.endToEnd()
		for _, d := range endToEnd {
			rep.Metrics[d.Name] = metricValue{Value: e2e[d.Name], Unit: d.Unit}
		}
	}
	// A broken validity gate means the workload no longer stresses what it
	// claims to; it is reported, and fails the suite, but a wrong answer is
	// the only thing that makes a run incorrect.
	for _, g := range gates(w.Name, rep.Metrics) {
		fmt.Fprintf(os.Stderr, "bench: %s: GATE: %s\n", w.Name, g)
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// setUp is one repetition of what setup_s times: a D12-shaped sample of two
// steps generated and indexed (the per-step price of making the dataset),
// the served directory prepared, the fleet started and ready, warm-up done.
func (r *run) setUp() (time.Duration, error) {
	sample := filepath.Join(r.p.Scratch, "sample")
	os.RemoveAll(sample) //nolint:errcheck // may not exist
	if err := os.MkdirAll(r.p.Scratch, 0o755); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := r.p.lwfagen(sample, 2); err != nil {
		return 0, err
	}
	if err := r.bringUp(r.w.Fleet, r.w.Name); err != nil {
		return 0, err
	}
	d := time.Since(start)
	os.RemoveAll(sample) //nolint:errcheck // scratch
	return d, nil
}

// bringUp prepares the served directory, starts a fleet of the given kind
// on it and plays the workload's warm-up. tag names the fleet's log files.
func (r *run) bringUp(kind fleetKind, tag string) error {
	if err := r.prepare(); err != nil {
		return err
	}
	f, err := startFleet(r.p, kind, r.dataDir, tag)
	if err != nil {
		return err
	}
	r.fleet = f
	return r.w.Warm(r)
}

// printMetrics writes the report to stderr as a table for people.
func printMetrics(name string, rep *report, trace bool) {
	out := os.Stderr
	pass := "end-to-end (untraced)"
	if trace {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(out, "%s  %s  attempted %d  failed %d  correct %v\n", name, pass, rep.Attempted, rep.Failed, rep.Correct)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rep.Metrics[n]
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", n, v.Value, v.Unit)
	}
}
