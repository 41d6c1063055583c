package query

import (
	"math"
	"testing"
)

// bindPalette is what fuzzed column values and constants are drawn from:
// ties, both signed zeros, infinities, NaN and the extremes, so every
// comparison edge of IEEE-754 is met.
var bindPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 2.5, math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64, 5e-324,
}

// bindVars are the variables fuzzed expressions reference; "m" is never
// bound to a column, so it reads as 0.
var bindVars = []string{"a", "b", "c", "m"}

// bindBytes hands out the fuzz input a byte at a time, zeros once spent.
type bindBytes struct {
	b []byte
	i int
}

func (f *bindBytes) next() int {
	if f.i >= len(f.b) {
		return 0
	}
	f.i++
	return int(f.b[f.i-1])
}

// bindExpr builds a random expression: comparisons with all six operators,
// IN lists, and !, && and || nodes of two or three terms. Interior nodes
// are forced while depth exceeds floor, so every expression is at least
// floor levels deep.
func bindExpr(in *bindBytes, depth, floor int) Expr {
	k := in.next()
	switch {
	case depth <= 0:
		k %= 2
	case depth > floor:
		k = 2 + k%3
	}
	pick := func() float64 { return bindPalette[in.next()%len(bindPalette)] }
	name := bindVars[in.next()%len(bindVars)]
	switch k % 5 {
	case 0:
		return &Compare{Var: name, Op: Op(in.next() % 6), Value: pick()}
	case 1:
		vs := make([]float64, 1+in.next()%4)
		for i := range vs {
			vs[i] = pick()
		}
		return NewIn(name, vs)
	case 2:
		return &Not{Term: bindExpr(in, depth-1, floor)}
	default:
		terms := make([]Expr, 2+in.next()%2)
		for i := range terms {
			terms[i] = bindExpr(in, depth-1, floor)
		}
		if k%5 == 3 {
			return &And{Terms: terms}
		}
		return &Or{Terms: terms}
	}
}

// FuzzBindPredicate is the oracle for the compiled row predicate: over
// columns holding NaN, ±Inf and both zeros, and with one variable missing,
// Bind(e, cols)(row) equals e.Eval for every row. The seed corpus is
// testdata/fuzz/FuzzBindPredicate.
func FuzzBindPredicate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &bindBytes{b: data}
		rows := 1 + in.next()%16
		cols := map[string][]float64{}
		for _, name := range bindVars[:3] {
			col := make([]float64, rows)
			for r := range col {
				col[r] = bindPalette[in.next()%len(bindPalette)]
			}
			cols[name] = col
		}
		e := bindExpr(in, 4, 1)
		match := Bind(e, cols)
		for r := 0; r < rows; r++ {
			want := e.Eval(func(name string) float64 {
				if col, ok := cols[name]; ok {
					return col[r]
				}
				return 0
			})
			if got := match(r); got != want {
				t.Fatalf("%s at row %d (a=%g b=%g c=%g): bound %v, Eval %v",
					e, r, cols["a"][r], cols["b"][r], cols["c"][r], got, want)
			}
		}
	})
}

// TestBindEveryComparison checks every operator and IN against Eval for
// every pair of palette values, column value against constant, so each
// IEEE-754 edge (NaN against !=, −0 against 0, ±Inf) is met on every plain
// go test, whatever the fuzz seeds reach.
func TestBindEveryComparison(t *testing.T) {
	cols := map[string][]float64{"a": bindPalette}
	for _, v := range bindPalette {
		exprs := []Expr{NewIn("a", []float64{v}), NewIn("a", []float64{v, 1, math.NaN()})}
		for op := LT; op <= NE; op++ {
			exprs = append(exprs, &Compare{Var: "a", Op: op, Value: v})
		}
		for _, e := range exprs {
			match := Bind(e, cols)
			for r, x := range bindPalette {
				want := e.Eval(func(string) float64 { return x })
				if got := match(r); got != want {
					t.Errorf("%s at a=%g: bound %v, Eval %v", e, x, got, want)
				}
			}
		}
	}
}

func TestBindMissingVariableReadsZero(t *testing.T) {
	cols := map[string][]float64{"a": {1, -1}}
	for _, c := range []struct {
		q    string
		want []bool
	}{
		{"m == 0 && a > 0", []bool{true, false}},
		{"m < 0 || a < 0", []bool{false, true}},
		{"m in (0, 3)", []bool{true, true}},
		{"!(m in (1, 3))", []bool{true, true}},
		{"m != 0", []bool{false, false}},
	} {
		match := Bind(MustParse(c.q), cols)
		for r, want := range c.want {
			if got := match(r); got != want {
				t.Errorf("%s row %d: got %v, want %v", c.q, r, got, want)
			}
		}
	}
}
