package main

// Suite mode: every workload, both passes — what a developer runs. Each pass
// is a driver run of this same binary in a process of its own, so the suite
// reports exactly what the driver measures and no pass inherits the heap the
// ladder of the one before left behind. -selfcheck runs the suite twice on
// the same code and requires set B to stay within every end-to-end bound of
// set A, and the explain-derived counts of the two traced passes to repeat
// exactly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// suiteResult holds one suite: every workload, both passes.
type suiteResult struct {
	Seed    uint64                            `json:"seed"`
	Seconds int                               `json:"seconds"`
	E2E     map[string]map[string]metricValue `json:"end_to_end"` // workload -> metric
	Layers  map[string]map[string]metricValue `json:"per_layer,omitempty"`
	Gates   map[string][]string               `json:"gates,omitempty"`
	Failed  int                               `json:"failed"`
}

// runPass executes one driver run in a child process and parses the JSON on
// the last line of its stdout. The child's table goes to stderr.
func runPass(w *workload, seed uint64, seconds int, trace bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", t)
	cmd.Stderr = os.Stderr
	// Should this process die, the child is told to sweep its servers.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("parse result: %w", err)
	}
	return &rep, nil
}

// suiteRuns is how many untraced runs, each with its own seed, stand behind a
// suite's end-to-end numbers: the median of three rides out the minute-long
// slow spells of a shared box that a single run of explore_shard3 cannot
// (one run in five there is a fifth slower than the rest).
const suiteRuns = 3

// runSuite executes every workload: suiteRuns untraced runs, reported as the
// median per metric, and one traced run.
func runSuite(seed uint64, seconds int) (*suiteResult, error) {
	res := &suiteResult{Seed: seed, Seconds: seconds,
		E2E: map[string]map[string]metricValue{}, Layers: map[string]map[string]metricValue{},
		Gates: map[string][]string{}}
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := uint64(0); i < suiteRuns; i++ {
			rep, err := runPass(w, seed+i, seconds, false)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			res.Failed += rep.Failed
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		res.E2E[w.Name] = map[string]metricValue{}
		for _, d := range endToEnd {
			res.E2E[w.Name][d.Name] = metricValue{Value: median(values[d.Name]), Unit: d.Unit}
		}
		rep, err := runPass(w, seed, seconds, true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		res.Failed += rep.Failed
		res.Gates[w.Name] = gates(w.Name, rep.Metrics)
		res.Layers[w.Name] = rep.Metrics
	}
	return res, nil
}

func suite(seed uint64, seconds int, out string) int {
	res, err := runSuite(seed, seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := writeSuite(out, res); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if res.Failed > 0 || gateCount(res) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d failed operations, %d broken validity gates\n", res.Failed, gateCount(res))
		return 1
	}
	return 0
}

// writeSuite stores a suite's metrics as JSON at out, if out is set.
func writeSuite(out string, res *suiteResult) error {
	if out == "" {
		return nil
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(buf, '\n'), 0o644)
}

func gateCount(res *suiteResult) int {
	n := 0
	for _, g := range res.Gates {
		n += len(g)
	}
	return n
}

// worse is by how much b is worse than a as a share of a, positive = worse.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// exactCounts are the explain-derived per-layer counts that must repeat
// exactly between two traced passes of the same code and seed.
var exactCounts = []string{
	"plan.fragments_per_op", "plan.two_phase_ratio", "bitmap.ops_per_op",
	"fastbit.candidate_checks_per_op", "colstore.data_bytes_per_op", "scan.rows_scanned_per_op",
	"shard.work_amplification",
}

func selfCheck(seed uint64, seconds int, out string) int {
	a, err := runSuite(seed, seconds)
	if err == nil {
		err = writeSuite(out, a)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: set A: %v\n", err)
		return 1
	}
	b, err := runSuite(seed, seconds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: set B: %v\n", err)
		return 1
	}
	bad := a.Failed + b.Failed + gateCount(a) + gateCount(b)
	var sb strings.Builder
	fmt.Fprintf(&sb, "selfcheck: seeds %d..%d, %d s windows, medians of %d runs; B may be worse than A by at most the bound\n",
		seed, seed+suiteRuns-1, seconds, suiteRuns)
	fmt.Fprintf(&sb, "%-16s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.E2E[w.Name][d.Name].Value, b.E2E[w.Name][d.Name].Value
			by := worse(d, va, vb)
			verdict := "ok"
			if by > d.Bound {
				verdict = "OUT OF BOUND"
				bad++
			}
			fmt.Fprintf(&sb, "%-16s %-26s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				w.Name, d.Name, va, vb, 100*by, 100*d.Bound, verdict)
		}
		for _, n := range exactCounts {
			va, vb := a.Layers[w.Name][n].Value, b.Layers[w.Name][n].Value
			verdict := "exact"
			if va != vb {
				verdict = "COUNT MOVED"
				bad++
			}
			fmt.Fprintf(&sb, "%-16s %-26s %14.6g %14.6g %9s %7s  %s\n", w.Name, n, va, vb, "", "", verdict)
		}
	}
	fmt.Fprintf(&sb, "failed operations: A %d, B %d; broken validity gates: A %d, B %d\n",
		a.Failed, b.Failed, gateCount(a), gateCount(b))
	fmt.Print(sb.String())
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: selfcheck failed on %d counts\n", bad)
		return 1
	}
	return 0
}
