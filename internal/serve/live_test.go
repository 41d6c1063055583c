package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fastbit"
	"repro/internal/fastquery"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/sim"
)

// liveSimConfig is the run the live tests ingest from: small enough to
// commit steps in milliseconds, big enough for non-trivial histograms.
func liveSimConfig(steps int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Steps = steps
	cfg.BackgroundPerStep = 800
	cfg.BeamParticles = 40
	return cfg
}

// liveServer seeds a dataset with the first seedSteps timesteps of a
// totalSteps run (pre-indexed, lwfagen-style) and serves it live.
func liveServer(t *testing.T, seedSteps, totalSteps int, lc LiveConfig) (*Server, *httptest.Server, *sim.Simulation) {
	t.Helper()
	return liveServerCfg(t, Config{Concurrency: 8}, seedSteps, totalSteps, lc)
}

// liveServerCfg is liveServer under a caller-chosen server configuration.
func liveServerCfg(t *testing.T, cfg Config, seedSteps, totalSteps int, lc LiveConfig) (*Server, *httptest.Server, *sim.Simulation) {
	t.Helper()
	dir := t.TempDir()
	seedCfg := liveSimConfig(seedSteps)
	if _, err := sim.WriteDataset(dir, seedCfg, sim.WriteOptions{
		Index: fastbit.IndexOptions{Bins: 32},
	}); err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	if err := s.AddLiveDataset("live", dir, lc); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	simRun, err := sim.New(liveSimConfig(totalSteps))
	if err != nil {
		t.Fatal(err)
	}
	return s, ts, simRun
}

// stepBody renders one simulation timestep as a POST /v1/ingest body.
func stepBody(t *testing.T, s *sim.Simulation, step int) IngestBody {
	t.Helper()
	ps, err := s.Step(step)
	if err != nil {
		t.Fatal(err)
	}
	cols := ps.Columns()
	var body IngestBody
	for _, name := range sim.Variables {
		body.Columns = append(body.Columns, IngestColumn{Name: name, Float: cols[name]})
	}
	body.Columns = append(body.Columns, IngestColumn{Name: sim.IDVar, Int: ps.ID})
	return body
}

// postJSON posts body as JSON and decodes the response into out.
func postJSON(t *testing.T, ts *httptest.Server, path string, body, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v (body %s)", path, err, raw.String())
		}
	}
	return resp.StatusCode, raw.String()
}

// waitIndexed polls /v1/steps until every step reports index_state
// "indexed" (or the deadline passes).
func waitIndexed(t *testing.T, ts *httptest.Server, wantSteps int, deadline time.Duration) StepsBody {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		var steps StepsBody
		if code, body := get(t, ts, "/v1/steps?detail=1", &steps); code != http.StatusOK {
			t.Fatalf("/v1/steps: %d: %s", code, body)
		}
		indexed := 0
		for _, d := range steps.Detail {
			if d.IndexState == "indexed" {
				indexed++
			}
		}
		if steps.Steps == wantSteps && indexed == wantSteps {
			return steps
		}
		if time.Now().After(end) {
			t.Fatalf("steps not all indexed before deadline: %+v", steps)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLiveIngestEndToEnd is the PR's acceptance scenario: serve a 2-step
// dataset, ingest 3 more steps over HTTP, and observe — without a restart
// — the dataset grow to 5 steps, each answering queries via the scan
// backend immediately and upgrading to fastbit when its index lands.
func TestLiveIngestEndToEnd(t *testing.T) {
	_, ts, simRun := liveServer(t, 2, 5, LiveConfig{
		IngestWorkers: 2,
		Index:         fastbit.IndexOptions{Bins: 32},
	})

	var steps StepsBody
	get(t, ts, "/v1/steps", &steps)
	if steps.Steps != 2 || !steps.Live {
		t.Fatalf("seed dataset: %+v", steps)
	}
	startGen := steps.Generation

	for i := 2; i < 5; i++ {
		var ack IngestResponse
		code, body := postJSON(t, ts, "/v1/ingest", stepBody(t, simRun, i), &ack)
		if code != http.StatusOK {
			t.Fatalf("ingest step %d: %d: %s", i, code, body)
		}
		if ack.Step != i || ack.Steps != i+1 || ack.Rows == 0 {
			t.Fatalf("ingest ack: %+v", ack)
		}
		// The committed step must be queryable right away — scan backend,
		// no waiting for the index builder.
		var q QueryBody
		path := fmt.Sprintf("/v1/query?step=%d&q=%s", i, "px+%3E+0")
		if code, body := get(t, ts, path, &q); code != http.StatusOK {
			t.Fatalf("query fresh step %d: %d: %s", i, code, body)
		}
		if q.Rows != ack.Rows {
			t.Fatalf("fresh step %d rows = %d, ingested %d", i, q.Rows, ack.Rows)
		}
	}

	final := waitIndexed(t, ts, 5, 30*time.Second)
	if final.Generation <= startGen {
		t.Fatalf("generation did not advance: %d -> %d", startGen, final.Generation)
	}

	// Upgraded steps must answer identically through both backends.
	for i := 0; i < 5; i++ {
		var scan, fb QueryBody
		base := fmt.Sprintf("/v1/query?step=%d&q=px+%%3E+1e8&backend=", i)
		if code, body := get(t, ts, base+"scan", &scan); code != http.StatusOK {
			t.Fatalf("scan step %d: %d: %s", i, code, body)
		}
		if code, body := get(t, ts, base+"fastbit", &fb); code != http.StatusOK {
			t.Fatalf("fastbit step %d: %d: %s", i, code, body)
		}
		if scan.Matches != fb.Matches || scan.Rows != fb.Rows {
			t.Fatalf("step %d: scan %d/%d != fastbit %d/%d",
				i, scan.Matches, scan.Rows, fb.Matches, fb.Rows)
		}
	}

	// /v1/stats must report the drained pipeline.
	var stats StatsBody
	get(t, ts, "/v1/stats", &stats)
	ing, ok := stats.Ingest["live"]
	if !ok {
		t.Fatalf("stats missing ingest block: %+v", stats.Ingest)
	}
	if ing.Committed != 5 || ing.Indexed != 5 || ing.Lag != 0 {
		t.Fatalf("ingest stats: %+v", ing)
	}
	if ing.Generation != final.Generation {
		t.Fatalf("stats generation %d != steps generation %d", ing.Generation, final.Generation)
	}
}

// TestCacheKeyPerStepGeneration pins the invalidation granularity: a
// generation change rotates the changed step's cache keys and nobody
// else's, and every other key dimension still separates entries.
func TestCacheKeyPerStepGeneration(t *testing.T) {
	d := &dataset{name: "live"}
	key := func(step int, gen uint64, plan string) string {
		man := &ingest.Manifest{Steps: make([]ingest.StepEntry, 3)}
		man.Steps[step].Gen = gen
		r := &request{d: d, sn: &snapshot{man: man}, t: step, plan: plan, backend: fastquery.Scan}
		return r.cacheKey("count")
	}
	if key(2, 5, "px > 0") == key(2, 6, "px > 0") {
		t.Fatal("generation change did not rotate the cache key")
	}
	if key(2, 5, "px > 0") != key(2, 5, "px > 0") {
		t.Fatal("identical requests produced different keys")
	}
	if key(1, 5, "px > 0") == key(2, 5, "px > 0") {
		t.Fatal("different steps share a key")
	}
	// A static dataset (gen always 0) keys exactly as before the live
	// subsystem existed, so its cache behavior is unchanged.
	if key(2, 0, "px > 0") == key(2, 1, "px > 0") {
		t.Fatal("gen 0 and gen 1 share a key")
	}
}

// TestLiveExternalCommitHotReload: a step committed by another process
// (an external writer sharing the dataset directory) becomes queryable
// through the catalog watcher — no POST, no restart.
func TestLiveExternalCommitHotReload(t *testing.T) {
	dir := t.TempDir()
	if _, err := sim.WriteDataset(dir, liveSimConfig(2), sim.WriteOptions{
		Index: fastbit.IndexOptions{Bins: 32},
	}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.AddLiveDataset("live", dir, LiveConfig{CatalogPoll: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()

	var steps StepsBody
	get(t, ts, "/v1/steps", &steps)
	if steps.Steps != 2 {
		t.Fatalf("seed: %+v", steps)
	}

	// External writer: a second catalog handle on the same directory, the
	// way a simulation-side qingest -direct process would append.
	cat, err := ingest.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	simRun, err := sim.New(liveSimConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := simRun.Step(2)
	if err != nil {
		t.Fatal(err)
	}
	cols := ps.Columns()
	var ic []ingest.Column
	for _, name := range sim.Variables {
		ic = append(ic, ingest.Column{Name: name, Float: cols[name]})
	}
	ic = append(ic, ingest.Column{Name: sim.IDVar, Int: ps.ID})
	if _, _, err := ingest.NewWriter(cat, 0).AppendStep(ic); err != nil {
		t.Fatal(err)
	}

	// The watcher must pick the commit up and serve the new step.
	end := time.Now().Add(10 * time.Second)
	for {
		get(t, ts, "/v1/steps?detail=1", &steps)
		if steps.Steps == 3 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("external commit never became visible: %+v", steps)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := steps.Detail[2].IndexState; st != "pending" {
		t.Fatalf("external step index state = %q, want pending", st)
	}
	var q QueryBody
	if code, body := get(t, ts, "/v1/query?step=2&q=px+%3E+0", &q); code != http.StatusOK {
		t.Fatalf("query external step: %d: %s", code, body)
	}
	// The unindexed step must have fallen back to the scan backend (which
	// stringifies as "custom", the paper's name for it).
	if q.Rows != uint64(ps.N()) || q.Backend != fastquery.Scan.String() {
		t.Fatalf("external step query: rows=%d want %d, backend=%q", q.Rows, ps.N(), q.Backend)
	}
}

// TestLiveRecoversUnindexedSeed: a live dataset opened over a directory
// with committed-but-unindexed steps (a crash before the builder finished,
// or a plain lwfagen -skip-index run) must index them without any ingest
// traffic.
func TestLiveRecoversUnindexedSeed(t *testing.T) {
	dir := t.TempDir()
	if _, err := sim.WriteDataset(dir, liveSimConfig(2), sim.WriteOptions{SkipIndex: true}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.AddLiveDataset("live", dir, LiveConfig{Index: fastbit.IndexOptions{Bins: 32}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Close()
	}()
	waitIndexed(t, ts, 2, 30*time.Second)
}

func TestLiveIngestValidation(t *testing.T) {
	s, ts, simRun := liveServer(t, 2, 4, LiveConfig{})

	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /v1/ingest: %d Allow %q, want 405 Allow POST", resp.StatusCode, resp.Header.Get("Allow"))
	}

	// Unknown dataset.
	body := stepBody(t, simRun, 2)
	body.Dataset = "nope"
	if code, _ := postJSON(t, ts, "/v1/ingest", body, nil); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d, want 404", code)
	}

	// Schema violations reject with 400 and commit nothing.
	bad := stepBody(t, simRun, 2)
	bad.Columns = bad.Columns[:2] // missing declared variables
	if code, msg := postJSON(t, ts, "/v1/ingest", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("partial columns: %d (%s), want 400", code, msg)
	}
	// So does an identifier float64 cannot carry exactly: tracking gathers
	// IDs as float64, and 2^53+1 would be followed as particle 2^53.
	inexact := stepBody(t, simRun, 2)
	ids := inexact.Columns[len(inexact.Columns)-1].Int
	ids[len(ids)/2] = 1<<53 + 1
	if code, msg := postJSON(t, ts, "/v1/ingest", inexact, nil); code != http.StatusBadRequest || !strings.Contains(msg, "2^53") {
		t.Fatalf("id 2^53+1: %d (%s), want 400 naming 2^53", code, msg)
	}
	var steps StepsBody
	get(t, ts, "/v1/steps", &steps)
	if steps.Steps != 2 {
		t.Fatalf("rejected ingest committed a step: %+v", steps)
	}

	// A storage failure is the server's fault, not the producer's — and a
	// producer drops a step on 4xx but retries it on 5xx. A directory
	// squatting on the next step's file fails the append: 500, nothing
	// committed, and once the fault clears the same step ingests.
	squat := s.datasets["live"].live.cat.StepPath(2)
	if err := os.Mkdir(squat, 0o755); err != nil {
		t.Fatal(err)
	}
	if code, msg := postJSON(t, ts, "/v1/ingest", stepBody(t, simRun, 2), nil); code != http.StatusInternalServerError {
		t.Fatalf("append onto a squatted path: %d (%s), want 500", code, msg)
	}
	if get(t, ts, "/v1/steps", &steps); steps.Steps != 2 {
		t.Fatalf("failed ingest committed a step: %+v", steps)
	}
	if err := os.Remove(squat); err != nil {
		t.Fatal(err)
	}
	// The retry arrives the way `curl -d @step.json` sends it, labelled as a
	// form: the body is still the step, not request parameters.
	buf, err := json.Marshal(stepBody(t, simRun, 2))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/ingest?debug=trace", "application/x-www-form-urlencoded", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	var ack IngestResponse
	err = jsonDecode(resp, &ack)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || ack.Step != 2 {
		t.Fatalf("ingest after the fault cleared: %d %v %+v", resp.StatusCode, err, ack)
	}

	// A static dataset must refuse ingest.
	sdir := t.TempDir()
	if _, err := sim.WriteDataset(sdir, liveSimConfig(2), sim.WriteOptions{SkipIndex: true}); err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{})
	if err := s2.AddDataset("static", sdir); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer func() {
		ts2.Close()
		s2.Close()
	}()
	if code, _ := postJSON(t, ts2, "/v1/ingest", stepBody(t, simRun, 2), nil); code != http.StatusConflict {
		t.Fatalf("ingest into static dataset: %d, want 409", code)
	}
}

// TestLiveConcurrentIngestAndQuery runs one writer committing steps while
// readers drill through /v1/query and /v1/hist2d across the generation
// changes — the satellite -race scenario. Correctness bar: no reader ever
// sees an error or a torn answer, and the final dataset agrees across
// backends.
func TestLiveConcurrentIngestAndQuery(t *testing.T) {
	const totalSteps = 6
	_, ts, simRun := liveServer(t, 2, totalSteps, LiveConfig{
		IngestWorkers: 2,
		Index:         fastbit.IndexOptions{Bins: 32},
	})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var steps StepsBody
				if code, body := get(t, ts, "/v1/steps", &steps); code != http.StatusOK {
					t.Errorf("reader %d: /v1/steps: %d: %s", r, code, body)
					return
				}
				step := i % steps.Steps
				var q QueryBody
				path := fmt.Sprintf("/v1/query?step=%d&q=px+%%3E+1e8", step)
				if code, body := get(t, ts, path, &q); code != http.StatusOK {
					t.Errorf("reader %d: query step %d: %d: %s", r, step, code, body)
					return
				}
				if q.Matches > q.Rows {
					t.Errorf("reader %d: torn answer: %d matches of %d rows", r, q.Matches, q.Rows)
					return
				}
				var h Hist2DBody
				hpath := fmt.Sprintf("/v1/hist2d?step=%d&x=x&y=px&xbins=16&ybins=16", step)
				if code, body := get(t, ts, hpath, &h); code != http.StatusOK {
					t.Errorf("reader %d: hist2d step %d: %d: %s", r, step, code, body)
					return
				}
				if h.Total != q.Rows {
					// Unconditioned histogram totals every row of the step.
					t.Errorf("reader %d: hist2d total %d != rows %d at step %d", r, h.Total, q.Rows, step)
					return
				}
			}
		}(r)
	}

	for i := 2; i < totalSteps; i++ {
		var ack IngestResponse
		if code, body := postJSON(t, ts, "/v1/ingest", stepBody(t, simRun, i), &ack); code != http.StatusOK {
			t.Fatalf("ingest step %d: %d: %s", i, code, body)
		}
		time.Sleep(20 * time.Millisecond) // let readers overlap the commit
	}
	waitIndexed(t, ts, totalSteps, 30*time.Second)
	close(done)
	wg.Wait()

	for i := 0; i < totalSteps; i++ {
		var scan, fb QueryBody
		base := fmt.Sprintf("/v1/query?step=%d&q=px+%%3E+1e8&backend=", i)
		get(t, ts, base+"scan", &scan)
		get(t, ts, base+"fastbit", &fb)
		if scan.Matches != fb.Matches {
			t.Fatalf("step %d: scan %d != fastbit %d", i, scan.Matches, fb.Matches)
		}
	}
}

// TestStepsReadOneManifest: /v1/steps takes its generation and every
// step's index state from the one snapshot it loaded, even when the
// serving snapshot moves on while the answer is built. (Two loads once
// paired "generation 7" with generation 8's index states.)
func TestStepsReadOneManifest(t *testing.T) {
	s, ts, _ := liveServer(t, 2, 2, LiveConfig{Index: fastbit.IndexOptions{Bins: 32}})
	waitIndexed(t, ts, 2, 30*time.Second)
	d := s.datasets["live"]
	cur := d.snap.Load()
	loaded := *cur.man
	loaded.Steps = slices.Clone(loaded.Steps)
	loaded.Steps[1].Indexed = false // pending in the loaded manifest

	// The snapshot moves on: a later generation with every step indexed.
	later := *cur.man
	later.Generation = loaded.Generation + 1
	d.snap.Store(&snapshot{man: &later, ds: cur.ds})

	body, err := d.stepsBody(&snapshot{man: &loaded, ds: cur.ds}, true)
	if err != nil {
		t.Fatal(err)
	}
	if body.Generation != loaded.Generation {
		t.Fatalf("generation %d, the loaded manifest's is %d", body.Generation, loaded.Generation)
	}
	for i, want := range []string{"indexed", "pending"} {
		if got := body.Detail[i].IndexState; got != want {
			t.Fatalf("step %d: index state %q, the loaded manifest says %q", i, got, want)
		}
	}
	// The handler answers from the current snapshot, all of it.
	var steps StepsBody
	get(t, ts, "/v1/steps?detail=1", &steps)
	if steps.Generation != later.Generation || steps.Detail[1].IndexState != "indexed" {
		t.Fatalf("handler: generation %d, step 1 %q; want %d, indexed", steps.Generation, steps.Detail[1].IndexState, later.Generation)
	}
}

// logBuffer is a log sink a test can read while the server writes to it.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestLiveWatcherRefusesBadCatalog: a newer catalog.json that ingest.Open
// would refuse — its steps out of order, or an unknown format — written
// under a live server is logged by the watcher, and the last good
// snapshot keeps serving.
func TestLiveWatcherRefusesBadCatalog(t *testing.T) {
	logs := &logBuffer{}
	cfg := Config{Logger: obs.NewLogger(logs, "test")}
	s, ts, _ := liveServerCfg(t, cfg, 2, 2, LiveConfig{
		CatalogPoll: 5 * time.Millisecond,
		Index:       fastbit.IndexOptions{Bins: 32},
	})
	good := waitIndexed(t, ts, 2, 30*time.Second)
	dir := s.datasets["live"].live.cat.Dir()
	man, err := ingest.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, logged string
		mutate       func(*ingest.Manifest)
	}{
		{"out of order", "out of order", func(m *ingest.Manifest) { m.Steps[0], m.Steps[1] = m.Steps[1], m.Steps[0] }},
		{"format 99", "unsupported catalog format 99", func(m *ingest.Manifest) { m.Format = 99 }},
	} {
		bad := man
		bad.Steps = slices.Clone(man.Steps)
		bad.Generation += 10
		c.mutate(&bad)
		buf, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ingest.CatalogFileName), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		var steps StepsBody
		for end := time.Now().Add(10 * time.Second); !strings.Contains(logs.String(), c.logged); {
			if get(t, ts, "/v1/steps?detail=1", &steps); steps.Generation != good.Generation {
				t.Fatalf("%s: the watcher published generation %d", c.name, steps.Generation)
			}
			if time.Now().After(end) {
				t.Fatalf("%s: the watcher never logged %q", c.name, c.logged)
			}
			time.Sleep(5 * time.Millisecond)
		}
		get(t, ts, "/v1/steps?detail=1", &steps)
		if !reflect.DeepEqual(steps, good) {
			t.Fatalf("%s: /v1/steps moved from %+v to %+v", c.name, good, steps)
		}
	}
}
