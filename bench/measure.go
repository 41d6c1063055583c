package main

// Turning a measured window into numbers: the end-to-end metrics, the
// per-layer metrics that come from the load generator, /proc and /v1/stats
// (sources H and S), and the validity gates.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// statsBody is the part of serve.StatsBody the harness reads.
type statsBody struct {
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
	} `json:"cache"`
	Sessions *struct {
		Selections    int    `json:"selections"`
		Bytes         int64  `json:"bytes"`
		RefineReuse   uint64 `json:"refine_reuse"`
		RefineScratch uint64 `json:"refine_scratch"`
	} `json:"sessions"`
	Sharding *struct {
		ShardStatus []struct {
			Stats struct {
				CacheHits   uint64
				CacheMisses uint64
			} `json:"stats"`
		} `json:"shard_status"`
	} `json:"sharding"`
}

func (r *run) stats() (statsBody, error) {
	var sb statsBody
	a := r.fleet.do(call{URL: "/v1/stats"})
	if !a.ok() {
		return sb, fmt.Errorf("/v1/stats: %w", a.Err)
	}
	return sb, json.Unmarshal(a.Body, &sb)
}

// fragCache sums the shard-local fragment cache counters.
func (s statsBody) fragCache() (hits, misses uint64) {
	if s.Sharding == nil {
		return 0, 0
	}
	for _, st := range s.Sharding.ShardStatus {
		hits += st.Stats.CacheHits
		misses += st.Stats.CacheMisses
	}
	return hits, misses
}

// measured is one executed window with everything sampled around it.
type measured struct {
	run           *run
	win           *windowResult
	setups        []float64 // seconds, one per set-up repetition
	cpu           time.Duration
	hwmKB         int64
	before, after statsBody
	disk          float64
	indexPerRow   float64
	checked       int
	wrong         []string
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd computes the metrics a user of the system would see.
func (m *measured) endToEnd() map[string]float64 {
	lat := sortedCopy(m.win.latencies(""))
	ok := float64(m.win.okCount())
	return map[string]float64{
		"setup_s":                  median(m.setups),
		"ops_per_s":                ratio(ok, m.win.Elapsed.Seconds()),
		"p50_ms":                   quantile(lat, 0.50),
		"cpu_s_per_kop":            ratio(m.cpu.Seconds(), ok/1000),
		"rss_peak_mb":              float64(m.hwmKB) / 1024,
		"disk_bytes_per_data_byte": m.disk,
	}
}

// cacheHitRatio is the result cache's hit share over the window.
func (m *measured) cacheHitRatio() float64 {
	hits := float64(m.after.Cache.Hits - m.before.Cache.Hits)
	all := hits + float64(m.after.Cache.Misses-m.before.Cache.Misses) +
		float64(m.after.Cache.Coalesced-m.before.Cache.Coalesced)
	return ratio(hits, all)
}

// windowLayers computes the per-layer metrics of sources H and S.
func (m *measured) windowLayers() map[string]float64 {
	out := map[string]float64{}
	lat := sortedCopy(m.win.latencies(""))
	n := len(m.win.Samples)
	out["fail_frac"] = ratio(float64(n-m.win.okCount()+len(m.wrong)), float64(n+m.checked))
	out["samples"] = float64(len(lat))
	out["p95_ms"] = quantile(lat, 0.95)
	if hi := highestPercentile(len(lat)); hi > 0 {
		out["p_hi_pct"] = hi
		out["p_hi_ms"] = quantile(lat, hi/100)
	}
	kinds := map[string]bool{}
	var bytes float64
	for _, s := range m.win.Samples {
		kinds[s.Kind] = true
		bytes += float64(s.Bytes)
	}
	for k := range kinds {
		if k != kindSession {
			out["serve."+k+".p50_ms"] = median(m.win.latencies(k))
		}
	}
	out["serve.json_bytes_per_op"] = ratio(bytes, float64(n))
	out["serve.cache_hit_ratio"] = m.cacheHitRatio()
	out["proc.cpu_util"] = ratio(m.cpu.Seconds(), m.win.Elapsed.Seconds())
	out["bitmap.index_bytes_per_row"] = m.indexPerRow

	h0, m0 := m.before.fragCache()
	h1, m1 := m.after.fragCache()
	out["shard.frag_cache_hit_ratio"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))

	if b, a := m.before.Sessions, m.after.Sessions; b != nil && a != nil {
		reuse := float64(a.RefineReuse - b.RefineReuse)
		out["session.refine_reuse_ratio"] = ratio(reuse, reuse+float64(a.RefineScratch-b.RefineScratch))
	}
	if len(m.win.Open) > 0 {
		late := make([]float64, len(m.win.Open))
		for i, s := range m.win.Open {
			late[i] = ms(s.Lateness())
		}
		sort.Float64s(late)
		out["gen.sched_lag_p95_ms"] = quantile(late, 0.95)
	}
	if len(m.run.lags) > 0 {
		out["ingest.index_lag_p50_ms"] = median(m.run.lags)
	}
	if len(m.run.quiet) > 0 {
		out["ingest.reader_slowdown"] = ratio(median(m.win.staticLatencies()), median(m.run.quiet))
	}
	out["session.bytes_per_selection"] = mean(m.run.selBytes)
	out["gen.selectivity_decades"] = m.selectivityDecades()
	return out
}

// staticLatencies returns the latencies (ms) of the reader's requests to
// the steps that do not change: ingest.reader_slowdown compares like with
// like, and the newest step is a different (and growing) size in each phase.
func (w *windowResult) staticLatencies() []float64 {
	var out []float64
	for _, s := range w.Samples {
		if s.OK && s.Kind != kindIngest && s.Kind != kindLatest {
			out = append(out, ms(s.Lat))
		}
	}
	return out
}

// selectivityDecades is how many decades the measured selectivities of the
// kept hist2d_cond answers span: total in-range matches over the step's
// rows. 0 when the workload has none.
func (m *measured) selectivityDecades() float64 {
	lo, hi := math.Inf(1), 0.0
	for _, k := range m.win.Kept {
		if k.Call.Kind != kindHist2DCond || k.Call.Req.Step < 0 {
			continue
		}
		var body struct {
			Total uint64 `json:"total"`
		}
		if json.Unmarshal(k.Body, &body) != nil || body.Total == 0 {
			continue
		}
		sel := float64(body.Total) / float64(m.run.prof.Steps[k.Call.Req.Step].Rows)
		lo, hi = math.Min(lo, sel), math.Max(hi, sel)
	}
	if hi == 0 {
		return 0
	}
	return math.Log10(hi / lo)
}

// gates lists the validity conditions a traced pass's metrics break: what
// makes a workload stress the layers it says it does. Every gate reads a
// per-layer metric, so an untraced pass has none to check.
func gates(workload string, got map[string]metricValue) []string {
	var out []string
	breaks := func(name string, bad func(v float64) bool, why string) {
		if v, ok := got[name]; ok && bad(v.Value) {
			out = append(out, fmt.Sprintf("%s %.4g %s", name, v.Value, why))
		}
	}
	switch workload {
	case "explore_local", "explore_shard3":
		breaks("serve.cache_hit_ratio", func(v float64) bool { return v > 0.02 }, "> 0.02: the stream repeats keys")
		breaks("gen.selectivity_decades", func(v float64) bool { return v < 3 }, "< 3: the selectivity ladder collapsed")
	case "dash_hot":
		breaks("serve.cache_hit_ratio", func(v float64) bool { return v < 0.95 }, "< 0.95: the panels do not stay cached")
		breaks("gen.sched_lag_p95_ms", func(v float64) bool { return v >= 1 }, ">= 1: the generator ran late")
	case "session_track":
		breaks("session.refine_reuse_ratio", func(v float64) bool { return v < 0.95 }, "< 0.95: refinements re-evaluate from scratch")
	}
	if workload == "explore_local" {
		breaks("fastquery.unattributed_frac", func(v float64) bool { return v > 0.2 }, "> 0.2: the rungs do not add up")
	}
	return out
}
