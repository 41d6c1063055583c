package main

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	m, err := parseMix("probe=0.3, drill=0.6,sweep=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.kinds, []string{kindProbe, kindDrill, kindSweep}) {
		t.Fatalf("mix %+v", m)
	}
	// Picks follow the weights within sampling noise.
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[m.pick(rng)]++
	}
	if f := float64(counts[kindDrill]) / n; math.Abs(f-0.6) > 0.03 {
		t.Fatalf("drill frequency %.3f, want ~0.6", f)
	}
	if f := float64(counts[kindProbe]) / n; math.Abs(f-0.3) > 0.03 {
		t.Fatalf("probe frequency %.3f, want ~0.3", f)
	}

	for _, bad := range []string{"", "zz=1", "ingest=1", "drill", "drill=-1", "drill=x", "drill=0.5,drill=0.5", "drill=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

func TestArrivalGapMeans(t *testing.T) {
	const mean = 10 * time.Millisecond
	for _, proc := range []string{"poisson", "uniform", "fixed"} {
		rng := rand.New(rand.NewSource(11))
		var sum time.Duration
		const n = 50000
		for i := 0; i < n; i++ {
			g, err := arrivalGap(rng, proc, mean)
			if err != nil {
				t.Fatal(err)
			}
			if g < 0 {
				t.Fatalf("%s: negative gap", proc)
			}
			sum += g
		}
		got := float64(sum) / float64(n) / float64(mean)
		if math.Abs(got-1) > 0.05 {
			t.Errorf("%s: mean gap %.3f× target", proc, got)
		}
	}
	if _, err := arrivalGap(rand.New(rand.NewSource(1)), "zipf", mean); err == nil {
		t.Error("unknown arrival process accepted")
	}
}

// TestCorrectedPercentileCountsScheduleDelay demonstrates the omission
// correction downstream code relies on: latency measured from scheduled
// arrival includes send delay that service latency hides.
func TestCorrectedPercentileCountsScheduleDelay(t *testing.T) {
	// 100 requests scheduled 1ms apart against a server that takes 10ms
	// serially: the k-th completes at (k+1)*10ms, so its corrected latency
	// grows linearly while its service latency is a constant 10ms.
	var corrected, service []time.Duration
	for k := 0; k < 100; k++ {
		scheduled := time.Duration(k) * time.Millisecond
		completion := time.Duration(k+1) * 10 * time.Millisecond
		corrected = append(corrected, completion-scheduled)
		service = append(service, 10*time.Millisecond)
	}
	if p := percentileMS(service, 99); p != 10 {
		t.Fatalf("service p99 = %.1fms, want 10", p)
	}
	if p := percentileMS(corrected, 99); p < 800 {
		t.Fatalf("corrected p99 = %.1fms — queueing delay was omitted", p)
	}
}

func TestOpenResultBadFrac(t *testing.T) {
	r := &openResult{Sent: 100, OK: 90, Shed429: 6, Shed503: 2, Errors: 2}
	if got := r.badFrac(); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("badFrac = %v, want 0.1", got)
	}
	if got := (&openResult{}).badFrac(); got != 0 {
		t.Fatalf("empty badFrac = %v", got)
	}
}

// TestOpenResultPrintSortsKinds pins the per-kind report lines to sorted
// order: ByKind is a map, and its iteration order must not leak into the
// report. Repeated, because map order would pass one print in six by luck.
func TestOpenResultPrintSortsKinds(t *testing.T) {
	r := &openResult{ByKind: map[string]*kindStat{
		kindSweep: {Sent: 1}, kindProbe: {Sent: 2}, kindDrill: {Sent: 3},
	}}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		r.print(&buf)
		got := buf.String()
		d, p, s := strings.Index(got, "  drill "), strings.Index(got, "  probe "), strings.Index(got, "  sweep ")
		if d < 0 || !(d < p && p < s) {
			t.Fatalf("kinds not in sorted order:\n%s", got)
		}
	}
}
