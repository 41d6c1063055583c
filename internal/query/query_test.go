package query

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func row(vals map[string]float64) func(string) float64 {
	return func(name string) float64 { return vals[name] }
}

func TestParseSimpleComparison(t *testing.T) {
	cases := []struct {
		src  string
		vals map[string]float64
		want bool
	}{
		{"px > 1e9", map[string]float64{"px": 2e9}, true},
		{"px > 1e9", map[string]float64{"px": 1e9}, false},
		{"px >= 1e9", map[string]float64{"px": 1e9}, true},
		{"px < 5", map[string]float64{"px": 4.9}, true},
		{"px <= 5", map[string]float64{"px": 5}, true},
		{"px == 5", map[string]float64{"px": 5}, true},
		{"px = 5", map[string]float64{"px": 5}, true},
		{"px != 5", map[string]float64{"px": 5}, false},
		{"5 < px", map[string]float64{"px": 6}, true},
		{"5 >= px", map[string]float64{"px": 5}, true},
		{"x > -2.5e-3", map[string]float64{"x": 0}, true},
	}
	for _, c := range cases {
		e, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if got := e.Eval(row(c.vals)); got != c.want {
			t.Errorf("%q with %v = %v, want %v", c.src, c.vals, got, c.want)
		}
	}
}

func TestParseCompound(t *testing.T) {
	// The example query from the paper (Section III-B).
	e, err := Parse("px > 1e9 && py < 1e8 && y > 0")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Eval(row(map[string]float64{"px": 2e9, "py": 0, "y": 1})) {
		t.Error("paper query should match high-momentum upper-half particle")
	}
	if e.Eval(row(map[string]float64{"px": 2e9, "py": 0, "y": -1})) {
		t.Error("paper query matched lower-half particle")
	}
	vars := Vars(e)
	if len(vars) != 3 || vars[0] != "px" || vars[1] != "py" || vars[2] != "y" {
		t.Errorf("Vars = %v", vars)
	}
}

func TestParsePrecedence(t *testing.T) {
	// && binds tighter than ||.
	e := MustParse("a > 1 || b > 1 && c > 1")
	if !e.Eval(row(map[string]float64{"a": 2, "b": 0, "c": 0})) {
		t.Error("a>1 alone should satisfy")
	}
	if e.Eval(row(map[string]float64{"a": 0, "b": 2, "c": 0})) {
		t.Error("b>1 alone should not satisfy")
	}
	if !e.Eval(row(map[string]float64{"a": 0, "b": 2, "c": 2})) {
		t.Error("b>1 && c>1 should satisfy")
	}
	// Parentheses override.
	e2 := MustParse("(a > 1 || b > 1) && c > 1")
	if e2.Eval(row(map[string]float64{"a": 2, "b": 0, "c": 0})) {
		t.Error("parenthesised or must still require c")
	}
}

func TestParseNot(t *testing.T) {
	e := MustParse("!(x < 0.5) && !y > 1")
	_ = e
	e2 := MustParse("!(x < 0.5)")
	if e2.Eval(row(map[string]float64{"x": 0})) {
		t.Error("!(x<0.5) matched x=0")
	}
	if !e2.Eval(row(map[string]float64{"x": 1})) {
		t.Error("!(x<0.5) missed x=1")
	}
	e3 := MustParse("!!(x < 0.5)")
	if !e3.Eval(row(map[string]float64{"x": 0})) {
		t.Error("double negation broken")
	}
}

func TestParseIn(t *testing.T) {
	e, err := Parse("id in (5, 3, 3, 17)")
	if err != nil {
		t.Fatal(err)
	}
	in, ok := e.(*In)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if len(in.Values) != 3 {
		t.Fatalf("dedup failed: %v", in.Values)
	}
	for _, id := range []float64{3, 5, 17} {
		if !in.Contains(id) {
			t.Errorf("Contains(%g) = false", id)
		}
	}
	if in.Contains(4) {
		t.Error("Contains(4) = true")
	}
	// "IN" case-insensitive.
	if _, err := Parse("id IN (1)"); err != nil {
		t.Errorf("uppercase IN rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "px >", "px > foo", "px & 1", "px | 1", "(px > 1", "px > 1)",
		"px >> 1", "in (1,2)", "id in ()", "id in (1,)", "id in (1", "px 5",
		"px > 1 &&", "@", "1 > 2", "px > 1e999x",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"px > 1e9 && py < 1e8 && y > 0",
		"(a > 1 || b <= 2) && !(c == 3)",
		"id in (1, 2, 3)",
		"x >= -0.5",
	}
	for _, src := range srcs {
		e := MustParse(src)
		s := e.String()
		e2, err := Parse(s)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", s, src, err)
		}
		if e2.String() != s {
			t.Errorf("round trip unstable: %q -> %q", s, e2.String())
		}
	}
}

// Property: parsing an expression's String() yields an expression that
// evaluates identically on random rows.
func TestStringRoundTripSemanticsProperty(t *testing.T) {
	f := func(a, b, c float64, pick uint8) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		srcs := []string{
			"x > 0.5 && y < 0.25",
			"x <= 0 || (y > 0 && z != 1)",
			"!(x < 0) && z >= -1",
			"x in (0, 1, 2) || y == 0",
		}
		src := srcs[int(pick)%len(srcs)]
		e1 := MustParse(src)
		e2 := MustParse(e1.String())
		get := row(map[string]float64{"x": a, "y": b, "z": c})
		return e1.Eval(get) == e2.Eval(get)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeSet(t *testing.T) {
	e := MustParse("px > 1e9 && py < 1e8 && y > 0 && px < 5e9")
	rs, ok := RangeSet(e)
	if !ok {
		t.Fatal("RangeSet rejected plain conjunction")
	}
	px := rs["px"]
	if px.Lo != 1e9 || !px.LoOpen || px.Hi != 5e9 || !px.HiOpen {
		t.Errorf("px interval = %v", px)
	}
	if !rs["y"].Contains(1) || rs["y"].Contains(0) || rs["y"].Contains(-1) {
		t.Errorf("y interval = %v", rs["y"])
	}
	if py := rs["py"]; !math.IsInf(py.Lo, -1) {
		t.Errorf("py interval = %v", py)
	}

	for _, src := range []string{"a > 1 || b > 1", "!(a > 1)", "id in (1)", "a != 3"} {
		if _, ok := RangeSet(MustParse(src)); ok {
			t.Errorf("RangeSet accepted %q", src)
		}
	}
}

func TestIntervalOps(t *testing.T) {
	a := Interval{Lo: 0, Hi: 10}
	b := Interval{Lo: 5, Hi: 20, LoOpen: true}
	x := Intersect(a, b)
	if x.Lo != 5 || !x.LoOpen || x.Hi != 10 || x.HiOpen {
		t.Errorf("Intersect = %v", x)
	}
	if x.Empty() {
		t.Error("nonempty intersection reported empty")
	}
	if !(Interval{Lo: 5, Hi: 4}).Empty() {
		t.Error("inverted interval not empty")
	}
	if !(Interval{Lo: 5, Hi: 5, LoOpen: true}).Empty() {
		t.Error("open point interval not empty")
	}
	if (Interval{Lo: 5, Hi: 5}).Empty() {
		t.Error("closed point interval reported empty")
	}
	if s := x.String(); !strings.Contains(s, "(") || !strings.Contains(s, "]") {
		t.Errorf("Interval.String = %q", s)
	}
}

func TestCompareInterval(t *testing.T) {
	iv, ok := CompareInterval(&Compare{Var: "x", Op: LT, Value: 3})
	if !ok || !iv.Contains(2.9) || iv.Contains(3) {
		t.Errorf("LT interval = %v", iv)
	}
	iv, ok = CompareInterval(&Compare{Var: "x", Op: GE, Value: 3})
	if !ok || !iv.Contains(3) || iv.Contains(2.9) {
		t.Errorf("GE interval = %v", iv)
	}
	iv, ok = CompareInterval(&Compare{Var: "x", Op: EQ, Value: 3})
	if !ok || !iv.Contains(3) || iv.Contains(3.1) {
		t.Errorf("EQ interval = %v", iv)
	}
	if _, ok := CompareInterval(&Compare{Var: "x", Op: NE, Value: 3}); ok {
		t.Error("NE produced an interval")
	}
}

func TestPrecision(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{1e-5, 1},     // paper example: "pressure less than 1*10^-5" is 1-digit
		{2.5e8, 2},    // paper example: "momentum greater than 2.5*10^8" is 2-digit
		{8.872e10, 4}, // threshold used in the use case
		{0, 1},
		{1, 1},
		{-3.25, 3},
		{100, 1},
		{123, 3},
	}
	// A constant's precision is the fewest significant digits that
	// RoundToPrecision keeps it at.
	for _, c := range cases {
		if RoundToPrecision(c.v, c.want) != c.v || c.want > 1 && RoundToPrecision(c.v, c.want-1) == c.v {
			t.Errorf("%g: not a %d-digit constant", c.v, c.want)
		}
	}
}

func TestRoundToPrecision(t *testing.T) {
	cases := []struct {
		v    float64
		p    int
		want float64
	}{
		{123456, 2, 120000},
		{8.872e10, 2, 8.9e10},
		{-0.0123, 1, -0.01},
		{5, 3, 5},
		{0, 2, 0},
	}
	for _, c := range cases {
		if got := RoundToPrecision(c.v, c.p); got != c.want {
			t.Errorf("RoundToPrecision(%g, %d) = %g, want %g", c.v, c.p, got, c.want)
		}
	}
}

// Property: every float64 is a constant of at most 17 digits, and
// rounding to p digits lands on the p-digit grid, where it stays.
func TestPrecisionRoundTripProperty(t *testing.T) {
	f := func(v float64, p uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		r := RoundToPrecision(v, 1+int(p)%17)
		return RoundToPrecision(v, 17) == v && RoundToPrecision(r, 1+int(p)%17) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	ops := map[Op]string{LT: "<", LE: "<=", GT: ">", GE: ">=", EQ: "==", NE: "!="}
	for op, s := range ops {
		if op.String() != s {
			t.Errorf("Op %d String = %q, want %q", op, op.String(), s)
		}
	}
	if Op(99).String() == "" {
		t.Error("unknown op String empty")
	}
}

func TestOpFlip(t *testing.T) {
	if LT.Flip() != GT || GE.Flip() != LE || EQ.Flip() != EQ || NE.Flip() != NE {
		t.Error("Flip wrong")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse(">>>")
}
