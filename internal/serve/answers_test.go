//go:build amd64

// Answer digest: a fixed request stream over one seeded dataset, each
// response body hashed with its volatile fields masked, compared line by
// line with testdata/answers.sum. The one-process server and a 3-shard
// fleet must produce the same line for every request, so a change that
// moves any served answer — an edge, a count, a merge — shows here.
//
// The file is pinned to amd64: float results (edges, adaptive bins) are
// only bit-stable on one architecture's arithmetic.
//
// Regenerate after an intended change of answers with
//
//	go test ./internal/serve/ -run TestAnswerDigest -update-answers
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fastbit"
	"repro/internal/ingest"
	"repro/internal/shard"
	"repro/internal/sim"
)

var updateAnswers = flag.Bool("update-answers", false, "rewrite testdata/answers.sum from the one-process server")

const answersFile = "testdata/answers.sum"

// answerVolatile are the body keys that legitimately differ between runs
// or between a single process and a fleet: timings, cache outcomes, the
// routing mode, trace and session identifiers.
var answerVolatile = map[string]bool{
	"elapsed_ms": true, "outcome": true, "mode": true, "trace_id": true,
	"session": true, "cache_source": true,
}

// answersDataset writes the digest's dataset: 4 steps of about 20 000
// rows, the simulator's fixed seed.
func answersDataset(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := sim.DefaultConfig()
	cfg.Steps = 4
	cfg.BackgroundPerStep = 20000
	cfg.BeamParticles = 200
	if _, err := sim.WriteDataset(dir, cfg, sim.WriteOptions{
		Index: fastbit.IndexOptions{Bins: 64},
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// answerRequest is one step of the stream. Session paths carry "{sid}",
// replaced by the session the stream created.
type answerRequest struct {
	method, path string
	status       int
}

func answerStream() []answerRequest {
	q := url.QueryEscape
	get := func(path string) answerRequest { return answerRequest{http.MethodGet, path, 200} }
	post := func(path string) answerRequest { return answerRequest{http.MethodPost, path, 200} }
	cond := "&q=" + q("px > 1e9 && y > -5e-6")
	return []answerRequest{
		get("/v1/query?step=1" + cond),
		get("/v1/query?step=1&backend=scan" + cond),
		get("/v1/query?step=2&q=" + q("px > 5e10 || (x > 0.5e-4 && pz < 0)")),
		get("/v1/query?step=3&q=" + q("id in (1, 7, 100, 4321, 19999, 20050, 40123, 60001)")),
		get("/v1/query?step=3&backend=scan&q=" + q("id in (1, 7, 100, 4321, 19999, 20050, 40123, 60001)")),
		get("/v1/hist1d?step=2&var=px&bins=48" + cond),
		get("/v1/hist1d?step=2&var=x&bins=32"),
		get("/v1/hist1d?step=2&var=px&bins=40&binning=adaptive" + cond),
		get("/v1/hist1d?step=3&var=y&bins=20&lo=-2e-5&hi=2e-5" + cond),
		get("/v1/hist1d?step=3&var=px&bins=16&backend=scan" + cond),
		get("/v1/hist2d?step=1&x=x&y=px&xbins=64&ybins=48" + cond),
		get("/v1/hist2d?step=1&x=x&y=px&xbins=32&ybins=32"),
		get("/v1/hist2d?step=2&x=x&y=px&xbins=1024&ybins=1024" + cond),
		get("/v1/hist2d?step=2&x=y&y=pz&xbins=24&ybins=24&binning=adaptive" + cond),
		get("/v1/hist2d?step=3&x=x&y=y&xbins=16&ybins=16&xlo=-1e-4&xhi=2e-4&ylo=-3e-5&yhi=3e-5&backend=scan" + cond),
		get("/v1/sweep2d?x=x&y=px&xbins=12&ybins=9" + cond),
		get("/v1/sweep2d?x=x&y=px&xbins=8&ybins=8&steps=1-3&backend=scan" + cond),
		post("/v1/session/{sid}/select?step=2&q=" + q("px > 1e9")),
		post("/v1/session/{sid}/select?step=2&refine=and&q=" + q("y < 1e-5")),
		post("/v1/session/{sid}/select?step=2&refine=andnot&q=" + q("x > 0.8e-4")),
		post("/v1/session/{sid}/select?step=2&refine=or&q=" + q("px > 8e10")),
		post("/v1/session/{sid}/track"),
		get("/v1/session/{sid}/views?vars=px,y,pz"),
		get("/v1/steps?detail=1"),
		get("/v1/vars?step=2"),
		{http.MethodGet, "/v1/query?step=1&q=" + q("px >> 3"), 400},
		{http.MethodGet, "/v1/query?dataset=nope&q=" + q("px > 3"), 404},
	}
}

// maskAnswer decodes a JSON body, drops the volatile keys at every level
// and re-encodes it with sorted keys; numbers keep their exact text.
func maskAnswer(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	var mask func(any)
	mask = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				if answerVolatile[k] {
					delete(x, k)
					continue
				}
				mask(e)
			}
		case []any:
			for _, e := range x {
				mask(e)
			}
		}
	}
	mask(v)
	return json.Marshal(v)
}

// runAnswers sends the stream to ts and returns one "hash method path"
// line per request.
func runAnswers(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	var created struct {
		ID string `json:"id"`
	}
	if code, raw, _ := sessPost(t, ts, "/v1/session", &created); code != 200 || created.ID == "" {
		t.Fatalf("create session: %d %s", code, raw)
	}
	var lines []string
	for _, r := range answerStream() {
		req, err := http.NewRequest(r.method, ts.URL+strings.ReplaceAll(r.path, "{sid}", created.ID), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != r.status {
			t.Fatalf("%s %s: status %d, want %d: %s", r.method, r.path, resp.StatusCode, r.status, raw)
		}
		masked, err := maskAnswer(raw)
		if err != nil {
			t.Fatalf("%s %s: %v: %s", r.method, r.path, err, raw)
		}
		sum := sha256.Sum256(masked)
		lines = append(lines, fmt.Sprintf("%s %s %s", hex.EncodeToString(sum[:8]), r.method, r.path))
	}
	return lines
}

func TestAnswerDigest(t *testing.T) {
	start := time.Now()
	dir := answersDataset(t)

	local := New(Config{})
	if err := local.AddDataset("lwfa", dir); err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(local)
	t.Cleanup(func() { lts.Close(); local.Close() })

	groups, shutdown, err := shard.StartLocalShards(3, map[string]string{"lwfa": dir}, shard.FragCacheBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	front := New(Config{})
	if err := front.AddDataset("lwfa", dir); err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultPoolConfig()
	cfg.CallTimeout = 10 * time.Second
	c, err := shard.DialShards(groups, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	front.SetShardClient(c)
	fts := httptest.NewServer(front)
	t.Cleanup(func() { fts.Close(); front.Close() })

	got := runAnswers(t, lts)
	if *updateAnswers {
		if err := os.WriteFile(filepath.FromSlash(answersFile), []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.FromSlash(answersFile))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	sharded := runAnswers(t, fts)
	if front.scatters.Load() == 0 {
		t.Fatal("the 3-shard stream never scattered")
	}
	if len(got) != len(want) {
		t.Fatalf("%d answers, %s has %d lines", len(got), answersFile, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("local answer changed:\n got %s\nwant %s", got[i], want[i])
		}
		if sharded[i] != want[i] {
			t.Errorf("3-shard answer differs:\n got %s\nwant %s", sharded[i], want[i])
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Logf("answer digest took %v (aim: under 5 s)", d)
	}
}

// TestMixedChunkSizesAnswerAlike: a live dataset whose seeded steps were
// written in 64 Ki-row chunks (the writer's default before 8 Ki) and
// whose later steps were ingested at today's default answers the digest's
// stream byte-identically to the same rows written at one chunk size. The
// chunk size is in each file's directory, so a dataset may mix them.
func TestMixedChunkSizesAnswerAlike(t *testing.T) {
	const steps, seeded = 4, 2
	cfg := sim.DefaultConfig()
	cfg.Steps = steps
	cfg.BackgroundPerStep = 20000
	cfg.BeamParticles = 200
	index := fastbit.IndexOptions{Bins: 64}

	oneSize := t.TempDir()
	if _, err := sim.WriteDataset(oneSize, cfg, sim.WriteOptions{Index: index}); err != nil {
		t.Fatal(err)
	}
	ref := New(Config{})
	if err := ref.AddDataset("lwfa", oneSize); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(ref)
	t.Cleanup(func() { rts.Close(); ref.Close() })

	// The same run's first steps, appended in 64 Ki-row chunks; the
	// server indexes them, and ingests the rest.
	simRun, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mixed := t.TempDir()
	cat, err := ingest.Create(mixed, "lwfa-synthetic", append(slices.Clone(sim.Variables), sim.IDVar), sim.IDVar)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seeded; i++ {
		ps, err := simRun.Step(i)
		if err != nil {
			t.Fatal(err)
		}
		byName := ps.Columns()
		var cols []ingest.Column
		for _, name := range sim.Variables {
			cols = append(cols, ingest.Column{Name: name, Float: byName[name]})
		}
		cols = append(cols, ingest.Column{Name: sim.IDVar, Int: ps.ID})
		if _, _, err := ingest.NewWriter(cat, 1<<16).AppendStep(cols); err != nil {
			t.Fatal(err)
		}
	}
	live := New(Config{})
	if err := live.AddLiveDataset("lwfa", mixed, LiveConfig{Index: index}); err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(live)
	t.Cleanup(func() { lts.Close(); live.Close() })
	for i := seeded; i < steps; i++ {
		if code, body := postJSON(t, lts, "/v1/ingest", stepBody(t, simRun, i), nil); code != http.StatusOK {
			t.Fatalf("ingest step %d: %d: %s", i, code, body)
		}
	}
	waitIndexed(t, lts, steps, 30*time.Second)

	want, got := runAnswers(t, rts), runAnswers(t, lts)
	for i, r := range answerStream() {
		// A live dataset's step list reports its ingest state.
		if !strings.HasPrefix(r.path, "/v1/steps") && got[i] != want[i] {
			t.Errorf("mixed chunk sizes answer differently:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
