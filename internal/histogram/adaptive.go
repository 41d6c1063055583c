package histogram

import "fmt"

// AdaptiveEdgesFromCounts merges the bins of a fine uniform histogram
// (given by its edges and per-bin counts) into `bins` contiguous groups of
// approximately equal total weight, returning the merged edges. This is
// the construction the paper attributes to FastBit: "FastBit computes
// adaptive histograms by first computing a higher-resolution uniformly
// binned histogram and then merging bins."
//
// minDensity, when positive, is the optional constraint from Section
// III-A3: a merged bin is closed early rather than diluted below the given
// record-per-unit-width density, which preserves detail in sparse regions.
func AdaptiveEdgesFromCounts(fineEdges []float64, fineCounts []uint64, bins int, minDensity float64) ([]float64, error) {
	if len(fineEdges) != len(fineCounts)+1 {
		return nil, fmt.Errorf("histogram: %d edges does not match %d counts", len(fineEdges), len(fineCounts))
	}
	if bins < 1 {
		return nil, fmt.Errorf("histogram: need at least 1 bin, got %d", bins)
	}
	if bins >= len(fineCounts) {
		return append([]float64(nil), fineEdges...), nil
	}
	var total uint64
	for _, c := range fineCounts {
		total += c
	}
	edges := make([]float64, 0, bins+1)
	edges = append(edges, fineEdges[0])
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
			width := fineEdges[i+1] - edges[len(edges)-1]
			if width > 0 && float64(acc)/width < minDensity {
				// Still below the density floor; keep absorbing unless we
				// are forced to close to leave room for remaining bins.
				closeHere = false
			}
		}
		// Force-close when exactly enough fine bins remain to give each
		// remaining merged bin at least one fine bin.
		if fineLeft < remainBins-1 {
			closeHere = true
		}
		if closeHere && remainBins > 1 && i < len(fineCounts)-1 {
			edges = append(edges, fineEdges[i+1])
			placed += acc
			acc = 0
			remainBins--
		}
	}
	edges = append(edges, fineEdges[len(fineEdges)-1])
	return edges, nil
}

// AdaptiveEdges computes equal-weight edges for raw values over [lo, hi]
// by first building an AdaptiveRefine× finer uniform histogram and merging
// it. Values outside [lo, hi] are ignored.
func AdaptiveEdges(values []float64, lo, hi float64, bins int, minDensity float64) ([]float64, error) {
	fine := UniformEdges(lo, hi, bins*AdaptiveRefine)
	h, err := Compute1D("", values, fine)
	if err != nil {
		return nil, err
	}
	return AdaptiveEdgesFromCounts(fine, h.Counts, bins, minDensity)
}
