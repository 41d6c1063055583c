package histogram

import "fmt"

// AdaptiveCuts merges the bins of a fine uniform histogram into `bins`
// contiguous groups of approximately equal total weight, returning the
// indices of the fine edges that bound the groups: 0, then each group's
// upper edge, ending at fine.Bins(). This is the construction the paper
// attributes to FastBit: "FastBit computes adaptive histograms by first
// computing a higher-resolution uniformly binned histogram and then
// merging bins." The fine counts are all it reads of the data, so a
// fleet cuts the merge of its shards' fine partials as one process cuts
// its own.
//
// minDensity, when positive, is the optional constraint from Section
// III-A3: a merged bin is closed early rather than diluted below the given
// record-per-unit-width density, which preserves detail in sparse regions.
func AdaptiveCuts(fine *Cells1D, bins int, minDensity float64) ([]int, error) {
	return cutCounts(fine.Edges, expanded(fine.cells, fine.Bins()), bins, minDensity)
}

// cutCounts is AdaptiveCuts over the dense counts of the fine bins
// between fineEdges.
func cutCounts(fineEdges []float64, fineCounts []uint64, bins int, minDensity float64) ([]int, error) {
	if bins < 1 {
		return nil, fmt.Errorf("histogram: need at least 1 bin, got %d", bins)
	}
	cuts := make([]int, 1, min(bins, len(fineCounts))+1)
	var total uint64
	for _, c := range fineCounts {
		total += c
	}
	var acc, placed uint64
	remainBins := bins
	for i, c := range fineCounts {
		acc += c
		// Target weight for the current merged bin: divide what is left
		// evenly among the remaining merged bins.
		remaining := total - placed
		target := remaining / uint64(remainBins)
		fineLeft := len(fineCounts) - i - 1
		closeHere := acc >= target && acc > 0
		if minDensity > 0 && acc > 0 {
			width := fineEdges[i+1] - fineEdges[cuts[len(cuts)-1]]
			if width > 0 && float64(acc)/width < minDensity {
				// Still below the density floor; keep absorbing unless we
				// are forced to close to leave room for remaining bins.
				closeHere = false
			}
		}
		// Force-close when exactly enough fine bins remain to give each
		// remaining merged bin at least one fine bin.
		if fineLeft <= remainBins-1 {
			closeHere = true
		}
		if closeHere && remainBins > 1 && i < len(fineCounts)-1 {
			cuts = append(cuts, i+1)
			placed += acc
			acc = 0
			remainBins--
		}
	}
	return append(cuts, len(fineCounts)), nil
}

// CheckCuts reports whether cuts can be an adaptive axis of at most bins
// bins: strictly increasing from 0 to AdaptiveRefine·bins, its fine bin
// count, and no longer than bins+1.
func CheckCuts(cuts []int, bins int) error {
	fine := bins * AdaptiveRefine
	ok := len(cuts) >= 2 && len(cuts)-1 <= bins && cuts[0] == 0 && cuts[len(cuts)-1] == fine
	for i := 1; ok && i < len(cuts); i++ {
		ok = cuts[i] > cuts[i-1]
	}
	if !ok {
		return fmt.Errorf("histogram: %d cuts do not cut %d fine bins into at most %d", len(cuts), fine, bins)
	}
	return nil
}

// ResolvedEdges returns the edges of an axis whose range is fixed: bins
// uniform bins over [lo, hi], or, with cuts, the cuts (AdaptiveCuts) of
// the AdaptiveRefine·bins uniform bins over it — bit for bit the edges
// AdaptiveEdges cuts.
func ResolvedEdges(lo, hi float64, bins int, cuts []int) ([]float64, error) {
	if len(cuts) == 0 {
		return UniformEdges(lo, hi, bins), nil
	}
	fine := UniformEdges(lo, hi, bins*AdaptiveRefine)
	if err := CheckCuts(cuts, bins); err != nil {
		return nil, err
	}
	edges := make([]float64, len(cuts))
	for i, c := range cuts {
		edges[i] = fine[c]
	}
	return edges, nil
}

// AdaptiveEdges computes equal-weight edges for raw values over [lo, hi]
// by first building an AdaptiveRefine× finer uniform histogram and merging
// it. Values outside [lo, hi] are ignored.
func AdaptiveEdges(values []float64, lo, hi float64, bins int, minDensity float64) ([]float64, error) {
	h, err := Compute1D("", values, UniformEdges(lo, hi, bins*AdaptiveRefine))
	if err != nil {
		return nil, err
	}
	return AdaptiveEdgesOf(h, lo, hi, bins, minDensity)
}

// AdaptiveEdgesOf is AdaptiveEdges given the fine histogram, the counts of
// UniformEdges(lo, hi, AdaptiveRefine·bins), however they were binned: a
// kernel that reads its values run by run bins them into a Binner1D.
func AdaptiveEdgesOf(fine *Hist1D, lo, hi float64, bins int, minDensity float64) ([]float64, error) {
	cuts, err := cutCounts(fine.Edges, fine.Counts, bins, minDensity)
	if err != nil {
		return nil, err
	}
	return ResolvedEdges(lo, hi, bins, cuts)
}
