// Package stats provides the "more traditional data analysis techniques"
// the paper's conclusion proposes coupling with the visual analysis: beam
// quality figures (relative energy spread, RMS emittance proxy) over a
// selection.
package stats

import (
	"fmt"
	"math"
)

// BeamQuality holds the accelerator-physics figures of merit the paper's
// collaborators read off the selections.
type BeamQuality struct {
	N int
	// MeanPx is the mean longitudinal momentum.
	MeanPx float64
	// EnergySpread is the relative RMS momentum spread std(px)/mean(px),
	// the "low energy spread" criterion of Section IV-B.
	EnergySpread float64
	// RMSy is the RMS transverse position (beam size).
	RMSy float64
	// Emittance is the RMS transverse trace-space emittance proxy
	// sqrt(<y²><y'²> − <y y'>²) with y' = py/px.
	Emittance float64
}

// Beam computes beam quality figures from particle columns.
func Beam(px, py, y []float64) (BeamQuality, error) {
	n := len(px)
	if n == 0 {
		return BeamQuality{}, fmt.Errorf("stats: empty beam")
	}
	if len(py) != n || len(y) != n {
		return BeamQuality{}, fmt.Errorf("stats: ragged beam columns")
	}
	q := BeamQuality{N: n}
	var sumPx float64
	for _, v := range px {
		sumPx += v
	}
	q.MeanPx = sumPx / float64(n)
	var ssPx float64
	for _, v := range px {
		d := v - q.MeanPx
		ssPx += d * d
	}
	if q.MeanPx != 0 {
		q.EnergySpread = math.Sqrt(ssPx/float64(n)) / math.Abs(q.MeanPx)
	}
	// Transverse moments.
	var my, myp float64
	yp := make([]float64, n)
	for i := range y {
		if px[i] != 0 {
			yp[i] = py[i] / px[i]
		}
		my += y[i]
		myp += yp[i]
	}
	my /= float64(n)
	myp /= float64(n)
	var syy, spp, syp float64
	for i := range y {
		dy, dp := y[i]-my, yp[i]-myp
		syy += dy * dy
		spp += dp * dp
		syp += dy * dp
	}
	syy /= float64(n)
	spp /= float64(n)
	syp /= float64(n)
	q.RMSy = math.Sqrt(syy)
	if det := syy*spp - syp*syp; det > 0 {
		q.Emittance = math.Sqrt(det)
	}
	return q, nil
}
