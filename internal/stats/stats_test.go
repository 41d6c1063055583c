package stats

import (
	"math/rand"
	"testing"
)

func TestBeam(t *testing.T) {
	// A cold beam: uniform px, zero transverse momentum and offset.
	n := 100
	px := make([]float64, n)
	py := make([]float64, n)
	y := make([]float64, n)
	for i := range px {
		px[i] = 1e10
	}
	q, err := Beam(px, py, y)
	if err != nil {
		t.Fatal(err)
	}
	if q.EnergySpread != 0 || q.RMSy != 0 || q.Emittance != 0 {
		t.Fatalf("cold beam: %+v", q)
	}
	// A warm beam has positive spread and emittance.
	rng := rand.New(rand.NewSource(2))
	for i := range px {
		px[i] = 1e10 * (1 + 0.05*rng.NormFloat64())
		py[i] = 1e8 * rng.NormFloat64()
		y[i] = 1e-5 * rng.NormFloat64()
	}
	q, err = Beam(px, py, y)
	if err != nil {
		t.Fatal(err)
	}
	if q.EnergySpread < 0.03 || q.EnergySpread > 0.07 {
		t.Fatalf("EnergySpread = %g", q.EnergySpread)
	}
	if q.RMSy <= 0 || q.Emittance <= 0 {
		t.Fatalf("warm beam: %+v", q)
	}
	if _, err := Beam(nil, nil, nil); err == nil {
		t.Fatal("empty beam accepted")
	}
	if _, err := Beam(px, py[:10], y); err == nil {
		t.Fatal("ragged beam accepted")
	}
}
