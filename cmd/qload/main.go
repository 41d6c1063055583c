// Command qload offers open-loop load to a running qserve instance:
// arrivals fire on a schedule independent of response times, drawn from a
// weighted mix of request kinds, and latency percentiles are
// coordinated-omission corrected (openloop.go).
//
// It has two modes:
//
//   - -rate R -duration D    one measurement phase at R arrivals/sec;
//   - -capacity              the found-capacity sweep (capacity.go): ramp
//     the rate until the corrected p99 breaks the -slo, then probe 2× the
//     found rate to show the server sheds instead of collapsing.
//
// Throughput, latency, resource and identity measurements of the serving
// stack are bench/'s job (bash bench/run.sh); qload is the tool for what
// bench/ leaves out — overload and admission shedding.
//
// Usage:
//
//	qserve -data /tmp/lwfa -addr :8080 &
//	qload -url http://127.0.0.1:8080 -rate 50 -duration 10s
//	qload -url http://127.0.0.1:8080 -capacity -slo 250ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"sort"
	"time"

	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qload: ")

	var (
		base    = flag.String("url", "", "qserve base URL (required)")
		dataset = flag.String("dataset", "", "dataset name (default: the first served)")
		step    = flag.Int("step", -1, "timestep (-1 = last)")
		backend = flag.String("backend", "", "backend parameter (fastbit | scan; empty = server default)")
		xvar    = flag.String("x", "x", "histogram X variable")
		yvar    = flag.String("y", "px", "histogram Y variable / cut variable")
		fine    = flag.Int("fine", 256, "drill hist2d bins per axis")
		out     = flag.String("out", "", "report JSON output path (default BENCH_openloop.json, or BENCH_capacity.json with -capacity; \"-\" = skip)")

		rate     = flag.Float64("rate", 0, "offered arrivals/sec for one open-loop phase")
		duration = flag.Duration("duration", 30*time.Second, "open-loop measurement duration")
		arrival  = flag.String("arrival", "poisson", "inter-arrival process: poisson | uniform | fixed")
		mixFlag  = flag.String("mix", "probe=0.3,drill=0.6,sweep=0.1", "request mix, kind=weight,... (probe | drill | sweep)")
		seed     = flag.Int64("seed", 1, "RNG seed for arrivals and mix picks")
		maxOut   = flag.Int("max-outstanding", 256, "max in-flight requests; a full window delays sends and the delay lands in corrected latency")

		capacity    = flag.Bool("capacity", false, "run the found-capacity sweep instead of a single -rate phase")
		slo         = flag.Duration("slo", 250*time.Millisecond, "corrected-p99 target defining sustainable capacity")
		capStart    = flag.Float64("cap-start", 5, "capacity sweep starting rate (qps)")
		capGrowth   = flag.Float64("cap-growth", 1.5, "capacity sweep geometric ramp factor")
		capPhase    = flag.Duration("cap-phase", 10*time.Second, "capacity sweep per-rate phase duration")
		capMax      = flag.Float64("cap-max", 2000, "capacity sweep rate ceiling (qps)")
		capShed     = flag.Float64("cap-shed-frac", 0.02, "tolerated non-200 fraction while a rate counts as sustained")
		baselineURL = flag.String("baseline-url", "", "second qserve (conventionally a fixed gate) to sweep for comparison")
		capEnforce  = flag.Bool("cap-enforce", false, "exit non-zero when adaptive found capacity < baseline found capacity")
	)
	flag.Parse()
	if *base == "" || (!*capacity && *rate <= 0) {
		fmt.Fprintln(flag.CommandLine.Output(), "qload: need -url and one of -rate R (single phase) or -capacity (sweep)")
		flag.Usage()
		os.Exit(2)
	}

	mix, err := parseMix(*mixFlag)
	if err != nil {
		log.Fatal(err)
	}
	// The transport must not serialize on a handful of pooled connections,
	// or pool exhaustion would masquerade as server latency.
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *maxOut + 16,
			MaxIdleConnsPerHost: *maxOut + 16,
		},
	}
	// target discovers one server's dataset and builds its request templates.
	target := func(base string) (*loadgen, openLoopPaths) {
		lg := &loadgen{base: base, backend: *backend, client: client}
		if err := lg.setup(*dataset, *step, *xvar, *yvar); err != nil {
			log.Fatal(err)
		}
		return lg, lg.buildPaths(*xvar, *yvar, *fine)
	}
	open := openLoopOptions{
		rate:           *rate,
		duration:       *duration,
		arrival:        *arrival,
		mix:            mix,
		maxOutstanding: *maxOut,
		seed:           *seed,
	}
	lg, paths := target(*base)

	var report interface {
		print(io.Writer)
	}
	var exitErr string // deferred fatal: the report is written first
	if *capacity {
		copt := capacityOptions{
			start:    *capStart,
			growth:   *capGrowth,
			phase:    *capPhase,
			max:      *capMax,
			shedFrac: *capShed,
			slo:      *slo,
			open:     open,
		}
		rep := &capacityReport{
			SLOMS:    float64(*slo) / float64(time.Millisecond),
			ShedFrac: *capShed,
			Arrival:  *arrival,
			Mix:      mix.String(),
			PhaseS:   capPhase.Seconds(),
		}
		if rep.Adaptive, err = lg.findCapacity(copt, paths); err != nil {
			log.Fatal(err)
		}
		if *baselineURL != "" {
			blg, bpaths := target(*baselineURL)
			if rep.Baseline, err = blg.findCapacity(copt, bpaths); err != nil {
				log.Fatal(err)
			}
			if rep.Baseline.FoundQPS > 0 {
				rep.Speedup = rep.Adaptive.FoundQPS / rep.Baseline.FoundQPS
			}
			if *capEnforce && rep.Adaptive.FoundQPS < rep.Baseline.FoundQPS {
				exitErr = fmt.Sprintf("capacity regression: adaptive %.1f qps < baseline %.1f qps",
					rep.Adaptive.FoundQPS, rep.Baseline.FoundQPS)
			}
		}
		report = rep
		if *out == "" {
			*out = "BENCH_capacity.json"
		}
	} else {
		res, err := lg.runOpenLoop(open, paths)
		if err != nil {
			log.Fatal(err)
		}
		report = res
		if *out == "" {
			*out = "BENCH_openloop.json"
		}
	}
	report.print(os.Stdout)
	if *out != "-" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *out)
	}
	if exitErr != "" {
		log.Fatal(exitErr)
	}
}

// loadgen is one target server: where it is and what setup discovered.
type loadgen struct {
	base    string
	backend string
	client  *http.Client

	dataset  string
	step     int
	yLo, yHi float64
	xLo, xHi float64
}

// getJSON fetches path (already query-encoded) and decodes into out.
func (lg *loadgen) getJSON(path string, out any) error {
	resp, err := lg.client.Get(lg.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("GET %s: decode: %w", path, err)
	}
	return nil
}

// setup discovers the dataset, step and variable ranges the request
// templates need.
func (lg *loadgen) setup(dataset string, step int, xvar, yvar string) error {
	var dss []serve.DatasetInfo
	if err := lg.getJSON("/v1/datasets", &dss); err != nil {
		return err
	}
	if len(dss) == 0 {
		return fmt.Errorf("server has no datasets")
	}
	var info *serve.DatasetInfo
	for i := range dss {
		if dataset == "" || dss[i].Name == dataset {
			info = &dss[i]
			break
		}
	}
	if info == nil {
		return fmt.Errorf("dataset %q not served", dataset)
	}
	lg.dataset = info.Name
	lg.step = step
	if lg.step < 0 {
		lg.step = info.Steps - 1
	}
	var vars serve.VarsBody
	path := fmt.Sprintf("/v1/vars?dataset=%s&step=%d", url.QueryEscape(lg.dataset), lg.step)
	if err := lg.getJSON(path, &vars); err != nil {
		return err
	}
	seen := 0
	for _, v := range vars.Vars {
		switch v.Name {
		case xvar:
			lg.xLo, lg.xHi = v.Min, v.Max
			seen++
		case yvar:
			lg.yLo, lg.yHi = v.Min, v.Max
			seen++
		}
	}
	if seen != 2 {
		return fmt.Errorf("dataset %q lacks variables %q/%q", lg.dataset, xvar, yvar)
	}
	return nil
}

func percentileMS(ds []time.Duration, p int) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)-1)*p + 50
	return float64(sorted[idx/100]) / float64(time.Millisecond)
}
