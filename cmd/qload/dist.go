// Open-loop traffic shaping: inter-arrival distributions and the request
// mix. Arrival times are drawn independently of response times — the
// defining property of an open-loop generator — so a slow server cannot
// slow the offered load down, and latency percentiles measured against
// the *scheduled* arrival time are free of coordinated omission.
package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Request kinds the open-loop mix can contain.
const (
	kindProbe = "probe" // repeated cached-key histogram (bypasses admission)
	kindDrill = "drill" // unique fine-resolution hist2d (backend work)
	kindSweep = "sweep" // temporal sweep across all steps (cold, heavy)
)

// arrivalGap draws one inter-arrival gap for the named process with the
// given mean.
func arrivalGap(rng *rand.Rand, arrival string, mean time.Duration) (time.Duration, error) {
	switch arrival {
	case "poisson":
		return time.Duration(rng.ExpFloat64() * float64(mean)), nil
	case "uniform":
		// mean/2 .. 3*mean/2 — same mean, bounded burstiness.
		return mean/2 + time.Duration(rng.Float64()*float64(mean)), nil
	case "fixed":
		return mean, nil
	}
	return 0, fmt.Errorf("unknown arrival process %q (poisson | uniform | fixed)", arrival)
}

// reqMix is a weighted request-kind distribution.
type reqMix struct {
	kinds []string
	cum   []float64 // cumulative weights, normalized to 1
}

// parseMix parses "probe=0.3,drill=0.5,sweep=0.2" into a reqMix. Weights
// are normalized, so they need not sum to 1.
func parseMix(s string) (*reqMix, error) {
	valid := map[string]bool{kindProbe: true, kindDrill: true, kindSweep: true}
	m := &reqMix{}
	total := 0.0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("mix entry %q: want kind=weight", part)
		}
		kind := strings.TrimSpace(kv[0])
		if !valid[kind] {
			return nil, fmt.Errorf("mix entry %q: unknown kind (probe | drill | sweep)", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: bad weight", part)
		}
		if w == 0 {
			continue
		}
		for _, k := range m.kinds {
			if k == kind {
				return nil, fmt.Errorf("mix kind %q repeated", kind)
			}
		}
		total += w
		m.kinds = append(m.kinds, kind)
		m.cum = append(m.cum, total)
	}
	if len(m.kinds) == 0 {
		return nil, fmt.Errorf("mix %q: no kinds with positive weight", s)
	}
	for i := range m.cum {
		m.cum[i] /= total
	}
	return m, nil
}

// pick draws one kind.
func (m *reqMix) pick(rng *rand.Rand) string {
	u := rng.Float64()
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.kinds) {
		i = len(m.kinds) - 1
	}
	return m.kinds[i]
}

func (m *reqMix) String() string {
	parts := make([]string, len(m.kinds))
	prev := 0.0
	for i, k := range m.kinds {
		parts[i] = fmt.Sprintf("%s=%.2f", k, m.cum[i]-prev)
		prev = m.cum[i]
	}
	return strings.Join(parts, ",")
}
