// Found-capacity sweep (-capacity): ramp the offered rate geometrically,
// holding each rate for one phase, until the server stops sustaining it.
// A rate is *sustained* when the non-200 fraction stays under the shed
// budget AND the coordinated-omission-corrected p99 of the answers stays
// under the SLO. The found capacity is the last sustained rate — the max
// QPS the server serves at the p99 SLO — and an overload probe then
// offers 2× that to show the server degrades (sheds, brownouts) instead
// of collapsing.
//
// With -baseline-url the same sweep runs against a second server —
// conventionally the same dataset behind a fixed (non-adaptive) gate —
// and -cap-enforce turns "adaptive found < baseline found" into a
// non-zero exit, making the comparison CI-enforceable.
package main

import (
	"fmt"
	"io"
	"log"
	"time"
)

// capacityOptions collects the -cap-* flags.
type capacityOptions struct {
	start    float64 // initial offered rate (qps)
	growth   float64 // geometric ramp factor between phases
	phase    time.Duration
	max      float64 // stop ramping past this rate
	shedFrac float64 // tolerated non-200 fraction while "sustained"
	slo      time.Duration
	open     openLoopOptions // rate is overwritten per phase
}

// capacityRun is one server's sweep: the ramp, the verdict, the probe.
type capacityRun struct {
	URL      string        `json:"url"`
	FoundQPS float64       `json:"found_qps"` // 0 when even the first rate was unsustainable
	Phases   []*openResult `json:"phases"`
	// Overload is the 2×-found probe: availability near 1 means the server
	// answered (200/429/503) rather than timing out or dropping connections.
	Overload *openResult `json:"overload,omitempty"`
}

// capacityReport is the BENCH_capacity.json shape.
type capacityReport struct {
	SLOMS    float64 `json:"slo_ms"`
	ShedFrac float64 `json:"shed_frac"`
	Arrival  string  `json:"arrival"`
	Mix      string  `json:"mix"`
	PhaseS   float64 `json:"phase_s"`

	Adaptive *capacityRun `json:"adaptive"`
	// Baseline is the same sweep against -baseline-url (fixed gate).
	Baseline *capacityRun `json:"baseline,omitempty"`
	// Speedup is adaptive found ÷ baseline found (0 when no baseline).
	Speedup float64 `json:"speedup,omitempty"`
}

// sustained applies the capacity criterion to one phase.
func (opt capacityOptions) sustained(r *openResult) bool {
	return r.OK > 0 &&
		r.badFrac() <= opt.shedFrac &&
		r.CorrectedP99MS <= float64(opt.slo)/float64(time.Millisecond)
}

// findCapacity runs the ramp against this loadgen's server.
func (lg *loadgen) findCapacity(opt capacityOptions, paths openLoopPaths) (*capacityRun, error) {
	run := &capacityRun{URL: lg.base}
	rate := opt.start
	for rate <= opt.max {
		o := opt.open
		o.rate = rate
		o.duration = opt.phase
		res, err := lg.runOpenLoop(o, paths)
		if err != nil {
			return nil, err
		}
		run.Phases = append(run.Phases, res)
		ok := opt.sustained(res)
		log.Printf("capacity %s: %.1f qps -> ok %d/%d, corrected p99 %.1fms, sustained=%v",
			lg.base, rate, res.OK, res.Sent, res.CorrectedP99MS, ok)
		if !ok {
			break
		}
		run.FoundQPS = rate
		rate *= opt.growth
	}
	if run.FoundQPS > 0 {
		// Overload probe: twice the found capacity. The server is expected
		// to shed and degrade, not to disappear.
		o := opt.open
		o.rate = 2 * run.FoundQPS
		o.duration = opt.phase
		over, err := lg.runOpenLoop(o, paths)
		if err != nil {
			return nil, err
		}
		run.Overload = over
		log.Printf("capacity %s: overload probe at %.1f qps -> availability %.3f, degraded %d",
			lg.base, o.rate, over.Availability, over.Degraded)
	}
	return run, nil
}

func (r *capacityReport) print(w io.Writer) {
	fmt.Fprintf(w, "capacity sweep: slo p99 %.0fms, shed budget %.0f%%, %s arrivals, mix %s\n",
		r.SLOMS, 100*r.ShedFrac, r.Arrival, r.Mix)
	printRun := func(label string, cr *capacityRun) {
		if cr == nil {
			return
		}
		fmt.Fprintf(w, "%s %s: found %.1f qps over %d phases\n",
			label, cr.URL, cr.FoundQPS, len(cr.Phases))
		if cr.Overload != nil {
			fmt.Fprintf(w, "  overload 2x: offered %.1f qps  availability %.3f  ok %d  degraded %d  shed %d\n",
				cr.Overload.OfferedQPS, cr.Overload.Availability, cr.Overload.OK,
				cr.Overload.Degraded, cr.Overload.Shed429+cr.Overload.Shed503)
		}
	}
	printRun("adaptive", r.Adaptive)
	printRun("baseline", r.Baseline)
	if r.Speedup > 0 {
		fmt.Fprintf(w, "adaptive/baseline capacity ratio: %.2fx\n", r.Speedup)
	}
}
