package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

func ExampleBeam() {
	// A mono-energetic, perfectly collimated beam has zero spread and
	// zero emittance.
	px := []float64{1e10, 1e10, 1e10}
	py := []float64{0, 0, 0}
	y := []float64{0, 0, 0}
	q, err := stats.Beam(px, py, y)
	if err != nil {
		panic(err)
	}
	fmt.Println(q.N, q.EnergySpread, q.Emittance)
	// Output:
	// 3 0 0
}
