package query_test

import (
	"fmt"

	"repro/internal/query"
)

func ExampleParse() {
	// The paper's example query: high momentum particles in the upper
	// half of the beam (Section III-B).
	e, err := query.Parse("px > 1e9 && py < 1e8 && y > 0")
	if err != nil {
		panic(err)
	}
	particle := map[string]float64{"px": 2e9, "py": 5e7, "y": 1e-5}
	fmt.Println(e.Eval(func(name string) float64 { return particle[name] }))
	fmt.Println(query.Vars(e))
	// Output:
	// true
	// [px py y]
}

func ExampleRangeSet() {
	e := query.MustParse("px > 1e9 && px < 5e9 && y > 0")
	rs, ok := query.RangeSet(e)
	fmt.Println(ok)
	fmt.Println(rs["px"])
	// Output:
	// true
	// (1e+09, 5e+09)
}

func ExampleRoundToPrecision() {
	// FastBit precision binning puts bin boundaries on a grid of p-digit
	// values (Section II-B): 1e-5 is a 1-digit constant, 2.5e8 a 2-digit
	// one, and 8.872e10 lies between 2-digit boundaries.
	fmt.Println(query.RoundToPrecision(1e-5, 1))
	fmt.Println(query.RoundToPrecision(2.5e8, 2))
	fmt.Println(query.RoundToPrecision(8.872e10, 2))
	// Output:
	// 1e-05
	// 2.5e+08
	// 8.9e+10
}
