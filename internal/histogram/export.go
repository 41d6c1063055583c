package histogram

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the 1D histogram, in either form, as CSV rows
// (lo, hi, count).
func (h *Hist1D) WriteCSV(w io.Writer) error {
	h = h.Dense()
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{h.Var + "_lo", h.Var + "_hi", "count"}); err != nil {
		return fmt.Errorf("histogram: write csv: %w", err)
	}
	for i, c := range h.Counts {
		rec := []string{
			formatFloat(h.Edges[i]),
			formatFloat(h.Edges[i+1]),
			strconv.FormatUint(c, 10),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("histogram: write csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV writes the 2D histogram, in either form, as CSV rows
// (xlo, xhi, ylo, yhi, count), emitting only non-empty bins.
func (h *Hist2D) WriteCSV(w io.Writer) error {
	h = h.Dense()
	cw := csv.NewWriter(w)
	header := []string{
		h.XVar + "_lo", h.XVar + "_hi",
		h.YVar + "_lo", h.YVar + "_hi",
		"count",
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("histogram: write csv: %w", err)
	}
	var werr error
	h.NonEmpty(func(ix, iy int, count uint64) {
		if werr != nil {
			return
		}
		rec := []string{
			formatFloat(h.XEdges[ix]),
			formatFloat(h.XEdges[ix+1]),
			formatFloat(h.YEdges[iy]),
			formatFloat(h.YEdges[iy+1]),
			strconv.FormatUint(count, 10),
		}
		werr = cw.Write(rec)
	})
	if werr != nil {
		return fmt.Errorf("histogram: write csv: %w", werr)
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
