package repro

// End-to-end integration tests: drive the whole stack the way a user
// would — generate a dataset, open it, query it through both backends,
// track particles, and run the command-line tools (every figure the
// paper's evaluation draws) as real subprocesses.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/histogram"
	"repro/internal/query"
	"repro/internal/sim"
)

// integrationDataset reuses the benchmark dataset generator.
func integrationDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := sim.DefaultConfig()
	cfg.Steps = 8
	cfg.BackgroundPerStep = 8000
	cfg.BeamParticles = 120
	if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{
		Index: fastbit.IndexOptions{Bins: 64},
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestEndToEndWorkflow(t *testing.T) {
	dir := integrationDataset(t)
	src, err := fastquery.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lastStep := src.Steps() - 1
	last, err := src.OpenStep(lastStep)
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()

	// 1. Interactive selection with both backends, identical results.
	q := query.MustParse("px > 5e10 && y > -1e-3")
	pos, err := last.Select(q, fastquery.FastBit)
	if err != nil {
		t.Fatal(err)
	}
	scanPos, err := last.Select(q, fastquery.Scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) == 0 || !reflect.DeepEqual(pos, scanPos) {
		t.Fatalf("selection: fastbit %d rows, scan %d rows", len(pos), len(scanPos))
	}

	// 2. Conditional histograms at two resolutions conserve the selection.
	for _, bins := range []int{32, 512} {
		h, err := last.Histogram2D(q, histogram.NewSpec2D("x", "px", bins, bins), fastquery.FastBit)
		if err != nil {
			t.Fatal(err)
		}
		if h.Total() != uint64(len(pos)) {
			t.Fatalf("bins=%d: histogram total %d != selection %d", bins, h.Total(), len(pos))
		}
	}

	// 3. Track the beam through the full run by identifier: every step
	// finds a subset of the set, the last step finds all of it, and both
	// backends find the same records.
	ids, err := last.SelectIDs(q, fastquery.FastBit)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step <= lastStep; step++ {
		st, err := src.OpenStep(step)
		if err != nil {
			t.Fatal(err)
		}
		found, err := st.FindIDs(ids, fastquery.FastBit)
		if err != nil {
			t.Fatal(err)
		}
		scanFound, err := st.FindIDs(ids, fastquery.Scan)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(found, scanFound) || len(found) > len(ids) {
			t.Fatalf("step %d: fastbit found %d, scan %d of %d ids", step, len(found), len(scanFound), len(ids))
		}
		if step == lastStep && len(found) != len(ids) {
			t.Fatalf("tracked %d of %d at the selection step", len(found), len(ids))
		}
	}
}

// TestCommandLineTools builds and runs the real executables end to end:
// the dataset tools and every subcommand of the figures driver.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := t.TempDir()
	for _, tool := range []string{"lwfagen", "indexgen", "figures"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	data := filepath.Join(t.TempDir(), "data")

	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
		return string(out)
	}

	out := run("lwfagen", "-out", data, "-steps", "5", "-particles", "3000", "-beam", "50", "-q")
	if !strings.Contains(out, "5 steps") {
		t.Fatalf("lwfagen output: %s", out)
	}

	// The gallery: polyline, histogram, adaptive, temporal and density
	// renderings of one dataset.
	figDir := filepath.Join(t.TempDir(), "figs")
	out = run("figures", "render", "-data", data, "-out", figDir)
	matches, err := filepath.Glob(filepath.Join(figDir, "*.png"))
	if err != nil || len(matches) != 9 {
		t.Fatalf("render produced %d PNGs: %v\n%s", len(matches), err, out)
	}
	for _, m := range matches {
		if st, err := os.Stat(m); err != nil || st.Size() == 0 {
			t.Fatalf("%s missing or empty: %v", m, err)
		}
	}

	out = run("figures", "track", "-data", data, "-query", "px > 1e10", "-show", "2")
	if !strings.Contains(out, "traced") || !strings.Contains(out, "mean_px") {
		t.Fatalf("track output: %s", out)
	}
	out = run("figures", "track", "-data", data, "-query", "px > 1e10", "-backend", "custom", "-show", "1")
	if !strings.Contains(out, "traced") {
		t.Fatalf("track custom output: %s", out)
	}
	csvPath := filepath.Join(t.TempDir(), "tracks.csv")
	run("figures", "track", "-data", data, "-query", "px > 1e10", "-show", "1", "-csv", csvPath)
	if st, err := os.Stat(csvPath); err != nil || st.Size() == 0 {
		t.Fatalf("track -csv produced nothing: %v", err)
	}

	out = run("figures", "serial", "-data", data, "-step", "3", "-exp", "fig13", "-runs", "1")
	if !strings.Contains(out, "Fig 13") {
		t.Fatalf("serial output: %s", out)
	}
	out = run("figures", "serial", "-data", data, "-step", "3", "-exp", "fig11", "-runs", "1", "-csv")
	if !strings.Contains(out, "fastbit_regular_s") {
		t.Fatalf("serial csv output: %s", out)
	}

	out = run("figures", "scale", "-data", data, "-exp", "all", "-nodes", "1,2,5", "-bins", "64", "-track-hits", "20")
	for _, want := range []string{"Fig 14", "Fig 15", "Fig 16", "Fig 17"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scale output missing %s:\n%s", want, out)
		}
	}
	out = run("figures", "scale", "-data", data, "-exp", "track", "-nodes", "1,2", "-assign", "blocked", "-csv")
	if !strings.Contains(out, "nodes,") {
		t.Fatalf("scale csv output: %s", out)
	}

	// indexgen: regenerate indexes from scratch for a dataset written
	// without them.
	data2 := filepath.Join(t.TempDir(), "noidx")
	run("lwfagen", "-out", data2, "-steps", "3", "-particles", "1500", "-beam", "30", "-skip-index", "-q")
	out = run("indexgen", "-data", data2, "-bins", "32")
	if !strings.Contains(out, "done") {
		t.Fatalf("indexgen output: %s", out)
	}
	out = run("figures", "info", "-data", data2)
	if !strings.Contains(out, "total:") || !strings.Contains(out, "index_mb") {
		t.Fatalf("info output: %s", out)
	}
	out = run("figures", "track", "-data", data2, "-query", "px > 1e9", "-show", "1")
	if !strings.Contains(out, "traced") {
		t.Fatalf("track after indexgen: %s", out)
	}

	// The Section IV use case on its own generated run.
	useDir := t.TempDir()
	out = run("figures", "usecase", "-out", useDir)
	if !strings.Contains(out, "beam refinement") || !strings.Contains(out, "beam evolution") {
		t.Fatalf("usecase output: %s", out)
	}
	if matches, _ := filepath.Glob(filepath.Join(useDir, "beam_*.png")); len(matches) != 4 {
		t.Fatalf("usecase wrote %d PNGs:\n%s", len(matches), out)
	}

	// The HTML report.
	htmlPath := filepath.Join(t.TempDir(), "report.html")
	run("figures", "report", "-data", data, "-out", htmlPath, "-bins", "64")
	html, err := os.ReadFile(htmlPath)
	if err != nil || !strings.Contains(string(html), "data:image/png;base64,") || !strings.Contains(string(html), "Fig 17") {
		t.Fatalf("report output invalid: %v", err)
	}

	// A missing subcommand or -data is a usage error.
	for _, args := range [][]string{nil, {"nope"}, {"render"}} {
		if err := exec.Command(filepath.Join(bin, "figures"), args...).Run(); err == nil {
			t.Fatalf("figures %v succeeded", args)
		}
	}
}

// TestServeDrainOnSIGTERM checks the graceful-shutdown contract as an
// operator sees it: SIGTERM mid-load flips readiness, lets in-flight
// requests finish, and exits 0 — never a crash or a hung process.
func TestServeDrainOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(bin, "qserve"), "./cmd/qserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build qserve: %v\n%s", err, out)
	}
	data := integrationDataset(t)

	srv := exec.Command(filepath.Join(bin, "qserve"), "-data", "lwfa="+data, "-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill() //nolint:errcheck // belt and braces if the drain hangs

	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "qserve: listening on "); ok {
			base = "http://" + addr
			break
		}
	}
	if base == "" {
		t.Fatalf("qserve never announced its address: %v", sc.Err())
	}
	client := &http.Client{Timeout: 30 * time.Second}

	// Load the server from several goroutines, then SIGTERM mid-flight.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := "/v1/hist2d?x=x&y=px&xbins=64&ybins=64&q=px%20%3E%200"
				if i%2 == 1 {
					path = "/v1/query?q=px%20%3E%201e10"
				}
				resp, err := client.Get(base + path)
				if err != nil {
					return // server closed its listener: drain has begun
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				// In-flight and pre-drain requests must succeed; shedding
				// statuses are acceptable under load, 5xx are not.
				if resp.StatusCode != http.StatusOK &&
					resp.StatusCode != http.StatusTooManyRequests &&
					resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond) // let the load get going
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("qserve exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("qserve did not exit within 60s of SIGTERM")
	}
	close(stop)
	wg.Wait()
}

// TestQueryService drives the HTTP serving layer end to end: qserve as a
// real subprocess, a drill-down over HTTP with both backends agreeing,
// cache hits on repeat, and one open-loop qload pass answered in full.
func TestQueryService(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := t.TempDir()
	for _, tool := range []string{"qserve", "qload"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	data := integrationDataset(t)

	srv := exec.Command(filepath.Join(bin, "qserve"), "-data", "lwfa="+data, "-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill() //nolint:errcheck // test teardown
		srv.Wait()         //nolint:errcheck
	}()

	// qserve prints "qserve: listening on <addr>" once the socket is open.
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "qserve: listening on "); ok {
			base = "http://" + addr
			break
		}
	}
	if base == "" {
		t.Fatalf("qserve never announced its address: %v", sc.Err())
	}
	client := &http.Client{Timeout: 30 * time.Second}
	get := func(path string, out any) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	// Drill down: coarse cut, then refined compound cut, on both backends.
	type queryBody struct {
		Matches uint64 `json:"matches"`
		Backend string `json:"backend"`
		Outcome string `json:"outcome"`
	}
	type hist2dBody struct {
		Counts []uint64 `json:"counts"` // row-major
		Total  uint64   `json:"total"`
	}
	total := func(h hist2dBody) uint64 {
		var n uint64
		for _, c := range h.Counts {
			n += c
		}
		return n
	}
	for _, q := range []string{"px > 1e10", "px > 5e10 && x > 0"} {
		qe := strings.ReplaceAll(q, " ", "%20")
		qe = strings.ReplaceAll(qe, ">", "%3E")
		qe = strings.ReplaceAll(qe, "&", "%26")
		var fbq, scq queryBody
		get("/v1/query?q="+qe+"&backend=fastbit", &fbq)
		get("/v1/query?q="+qe+"&backend=scan", &scq)
		if fbq.Matches == 0 || fbq.Matches != scq.Matches {
			t.Fatalf("%q: fastbit %d, scan %d matches", q, fbq.Matches, scq.Matches)
		}
		var fbh, sch hist2dBody
		hq := "&x=x&y=px&xbins=32&ybins=32&q=" + qe
		get("/v1/hist2d?backend=fastbit"+hq, &fbh)
		get("/v1/hist2d?backend=scan"+hq, &sch)
		if total(fbh) != fbq.Matches || total(sch) != total(fbh) {
			t.Fatalf("%q: hist totals fastbit %d scan %d, matches %d",
				q, total(fbh), total(sch), fbq.Matches)
		}
	}

	// Repeating a request must hit the cache without new backend calls.
	type statsBody struct {
		Cache struct {
			Hits uint64 `json:"hits"`
		} `json:"cache"`
		BackendCalls uint64 `json:"backend_calls"`
	}
	var st0, st1 statsBody
	get("/v1/stats", &st0)
	var repeat queryBody
	get("/v1/query?q=px%20%3E%201e10&backend=fastbit", &repeat)
	if repeat.Outcome != "hit" {
		t.Fatalf("repeat outcome %q, want hit", repeat.Outcome)
	}
	get("/v1/stats", &st1)
	if st1.Cache.Hits != st0.Cache.Hits+1 || st1.BackendCalls != st0.BackendCalls {
		t.Fatalf("stats before %+v after %+v", st0, st1)
	}

	// One open-loop qload pass writes its report: every arrival answered
	// 200, corrected percentiles ordered, only the mix's kinds present.
	benchPath := filepath.Join(t.TempDir(), "BENCH_openloop.json")
	cmd := exec.Command(filepath.Join(bin, "qload"), "-url", base,
		"-rate", "40", "-duration", "2s", "-mix", "probe=0.3,drill=0.6,sweep=0.1", "-out", benchPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("qload: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Sent   int                        `json:"sent"`
		OK     int                        `json:"ok"`
		Errors int                        `json:"errors"`
		P50MS  float64                    `json:"corrected_p50_ms"`
		P99MS  float64                    `json:"corrected_p99_ms"`
		ByKind map[string]json.RawMessage `json:"by_kind"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatalf("BENCH_openloop.json: %v\n%s", err, raw)
	}
	if bench.Sent == 0 || bench.Errors != 0 || bench.OK != bench.Sent ||
		bench.P50MS <= 0 || bench.P99MS < bench.P50MS {
		t.Fatalf("open-loop report looks wrong: %s", raw)
	}
	for kind := range bench.ByKind {
		if kind != "probe" && kind != "drill" && kind != "sweep" {
			t.Fatalf("by_kind has %q, not in the mix: %s", kind, raw)
		}
	}
	// Server stayed healthy through the load.
	resp, err := client.Get(base + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after qload: %v %v", err, resp)
	}
	resp.Body.Close()
}
